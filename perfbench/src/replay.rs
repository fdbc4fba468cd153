//! Layer replays: re-run one layer's public functions on what a request
//! produced, to time that layer in isolation and assert it reproduces the
//! published result.

use std::time::Instant;

use ppc_cluster::quality::{average_within_cluster_squared_distance, silhouette};
use ppc_cluster::AgglomerativeClustering;
use ppc_core::protocol::engine::{EngineOutcome, SessionSpec};
use ppc_core::protocol::messages::{
    CcmBundleMsg, CcmChunkMsg, ClusteringChoiceMsg, EncryptedColumnMsg, LocalMatrixMsg,
    MaskedNumericMsg, MaskedStringsMsg, PairwiseChunkMsg, PairwiseMatrixMsg, PublishedResultMsg,
};
use ppc_core::protocol::topic::{AlphaKind, NumericKind, Step, Topic};
use ppc_core::result::ClusteringResult;
use ppc_crypto::{ChaCha20Poly1305, NONCE_LEN};

/// Seconds spent replaying clustering: dendrogram fit and cut, then the
/// published quality parameters.
#[derive(Debug, Clone, Copy, Default)]
pub struct ClusterReplay {
    /// `AgglomerativeClustering::fit_k`.
    pub fit_k_s: f64,
    /// `average_within_cluster_squared_distance` and `silhouette`.
    pub quality_s: f64,
}

/// Re-clusters each outcome's final matrix with its session's request and
/// checks the result equals the published one. Errors name the session.
pub fn cluster(outcomes: &[EngineOutcome], specs: &[SessionSpec]) -> Result<ClusterReplay, String> {
    let mut replay = ClusterReplay::default();
    for (id, (outcome, spec)) in outcomes.iter().zip(specs).enumerate() {
        let matrix = outcome.final_matrix.matrix();
        let request = &spec.request;
        let t = Instant::now();
        let assignment = AgglomerativeClustering::new(request.linkage)
            .fit_k(matrix, request.num_clusters)
            .map_err(|e| format!("session {id}: fit_k: {e}"))?;
        let fitted = Instant::now();
        let scatter = average_within_cluster_squared_distance(matrix, &assignment)
            .map_err(|e| format!("session {id}: quality: {e}"))?;
        let sil = if assignment.num_clusters() >= 2 && matrix.len() > assignment.num_clusters() {
            silhouette(matrix, &assignment).ok()
        } else {
            None
        };
        let done = Instant::now();
        replay.fit_k_s += (fitted - t).as_secs_f64();
        replay.quality_s += (done - fitted).as_secs_f64();
        let result = ClusteringResult::from_assignment(
            &assignment,
            outcome.final_matrix.index(),
            scatter,
            sil,
        )
        .map_err(|e| format!("session {id}: {e}"))?;
        let published = &outcome.result;
        if result.clusters != published.clusters
            || result.average_within_cluster_squared_distance.to_bits()
                != published.average_within_cluster_squared_distance.to_bits()
        {
            return Err(format!(
                "session {id}: replayed clustering differs from the published result"
            ));
        }
    }
    Ok(replay)
}

/// Decodes one captured payload with the decoder its topic names.
/// Control-plane topics carry no protocol payload and are skipped.
pub fn decode(topic: &str, payload: &[u8]) -> Result<(), String> {
    let err = |e: ppc_core::error::CoreError| format!("{topic}: {e}");
    let step = match Topic::parse(topic).map_err(err)? {
        Topic::Control { .. } => return Ok(()),
        Topic::Session { step, .. } => step,
    };
    match step {
        Step::ClusteringChoice => ClusteringChoiceMsg::decode(payload).map(drop),
        Step::PublishedResult => PublishedResultMsg::decode(payload).map(drop),
        Step::Local { .. } => LocalMatrixMsg::decode(payload).map(drop),
        Step::Categorical { .. } => EncryptedColumnMsg::decode(payload).map(drop),
        Step::Numeric { kind, .. } => match kind {
            NumericKind::Masked => MaskedNumericMsg::decode(payload).map(drop),
            // Masked windows reuse the comparison-window encoding.
            NumericKind::MaskedChunk => PairwiseChunkMsg::decode(payload).map(drop),
            NumericKind::Pairwise => PairwiseMatrixMsg::decode(payload).map(drop),
            NumericKind::PairwiseChunk => PairwiseChunkMsg::decode(payload).map(drop),
        },
        Step::Alphanumeric { kind, .. } => match kind {
            AlphaKind::Masked => MaskedStringsMsg::decode(payload).map(drop),
            AlphaKind::Ccms => CcmBundleMsg::decode(payload).map(drop),
            AlphaKind::CcmsChunk => CcmChunkMsg::decode(payload).map(drop),
        },
    }
    .map_err(err)
}

/// Seconds to decode every captured `(topic, payload)`.
pub fn decode_all(captured: &[(String, Vec<u8>)]) -> Result<f64, String> {
    let t = Instant::now();
    for (topic, payload) in captured {
        decode(topic, payload)?;
    }
    Ok(t.elapsed().as_secs_f64())
}

/// Seconds to seal, then open, `records` AEAD records carrying
/// `plaintext_bytes` in total, through the public ChaCha20-Poly1305.
pub fn aead(records: u64, plaintext_bytes: u64) -> Result<(f64, f64), String> {
    if records == 0 {
        return Ok((0.0, 0.0));
    }
    let cipher = ChaCha20Poly1305::new(&[0x42; 32]);
    let size = (plaintext_bytes / records) as usize;
    let plaintext = vec![0x5a; size];
    let nonce = |i: u64| {
        let mut n = [0u8; NONCE_LEN];
        n[..8].copy_from_slice(&i.to_le_bytes());
        n
    };
    let t = Instant::now();
    let sealed: Vec<Vec<u8>> = (0..records)
        .map(|i| cipher.seal(&nonce(i), b"", &plaintext))
        .collect();
    let seal_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    for (i, record) in sealed.iter().enumerate() {
        let opened = cipher
            .open(&nonce(i as u64), b"", record)
            .map_err(|e| format!("AEAD replay failed to open record {i}: {e}"))?;
        if opened.len() != size {
            return Err(format!(
                "AEAD replay opened {} bytes, sealed {size}",
                opened.len()
            ));
        }
    }
    Ok((seal_s, t.elapsed().as_secs_f64()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn control_topics_are_skipped_and_garbage_is_an_error() {
        assert!(decode("ctl/announce", b"anything").is_ok());
        assert!(decode("s0/published-result", &[0xff]).is_err());
        assert!(decode("not a topic", &[]).is_err());
    }

    #[test]
    fn aead_replay_round_trips() {
        let (seal, open) = aead(8, 8 * 1024).unwrap();
        assert!(seal >= 0.0 && open >= 0.0);
        assert_eq!(aead(0, 0).unwrap(), (0.0, 0.0));
    }
}
