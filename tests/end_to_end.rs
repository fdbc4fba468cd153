//! End-to-end integration tests: the privacy-preserving pipeline must match
//! the centralized computation exactly, in every mode, over the networked
//! session as well as the in-memory driver, for every workload type.

use ppclust::baselines::centralized::CentralizedBaseline;
use ppclust::cluster::agreement::{adjusted_rand_index, rand_index};
use ppclust::cluster::{ClusterAssignment, Linkage};
use ppclust::core::protocol::driver::{ClusteringRequest, ThirdPartyDriver};
use ppclust::core::protocol::party::TrustedSetup;
use ppclust::core::protocol::session::ClusteringSession;
use ppclust::core::protocol::{NumericMode, ProtocolConfig};
use ppclust::core::ClusteringResult;
use ppclust::crypto::{RngAlgorithm, Seed};
use ppclust::data::Workload;

fn published_assignment(result: &ClusteringResult, total: usize) -> ClusterAssignment {
    let mut pairs: Vec<(ppclust::core::ObjectId, usize)> = Vec::new();
    for (cluster, members) in result.clusters.iter().enumerate() {
        for &id in members {
            pairs.push((id, cluster));
        }
    }
    pairs.sort_by_key(|(id, _)| *id);
    assert_eq!(pairs.len(), total);
    ClusterAssignment::from_labels(&pairs.into_iter().map(|(_, c)| c).collect::<Vec<_>>())
}

fn assert_matches_centralized(workload: &Workload, clusters: usize, config: ProtocolConfig) {
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(0xEE)).unwrap();
    let driver = ThirdPartyDriver::new(schema.clone(), config);
    let output = driver
        .construct(&setup.holders, &setup.third_party)
        .unwrap();
    let request = ClusteringRequest {
        weights: schema.uniform_weights(),
        linkage: Linkage::Average,
        num_clusters: clusters,
    };
    let (result, matrix) = driver.cluster(&output, &request).unwrap();

    let central = CentralizedBaseline::new(schema.clone());
    let reference = central
        .run(
            &workload.partitions,
            &schema.uniform_weights(),
            Linkage::Average,
            clusters,
        )
        .unwrap();

    // The dissimilarity matrices agree to fixed-point precision...
    let diff = matrix
        .matrix()
        .max_abs_difference(reference.final_matrix.matrix());
    assert!(diff < 1e-6, "matrix deviation {diff}");
    // ...and the published clustering is identical to the centralized one.
    let published = published_assignment(&result, workload.len());
    let ari = adjusted_rand_index(&published, &reference.assignment).unwrap();
    assert!((ari - 1.0).abs() < 1e-9, "ARI vs centralized {ari}");
    let ri = rand_index(&published, &reference.assignment).unwrap();
    assert!((ri - 1.0).abs() < 1e-9);
}

#[test]
fn protocol_matches_centralized_on_mixed_bird_flu_workload() {
    let workload = Workload::bird_flu(24, 3, 3, 100).unwrap();
    assert_matches_centralized(&workload, 3, ProtocolConfig::default());
}

#[test]
fn protocol_matches_centralized_on_customer_workload_with_four_sites() {
    let workload = Workload::customer_segmentation(32, 4, 4, 55).unwrap();
    assert_matches_centralized(&workload, 4, ProtocolConfig::default());
}

#[test]
fn protocol_matches_centralized_in_per_pair_mode() {
    let workload = Workload::numeric_only(30, 3, 3, 8).unwrap();
    let config = ProtocolConfig {
        numeric_mode: NumericMode::PerPair,
        ..ProtocolConfig::default()
    };
    assert_matches_centralized(&workload, 3, config);
}

#[test]
fn protocol_matches_centralized_with_xoshiro_streams() {
    let workload = Workload::dna_only(18, 2, 3, 20, 9).unwrap();
    let config = ProtocolConfig {
        rng_algorithm: RngAlgorithm::Xoshiro256PlusPlus,
        ..ProtocolConfig::default()
    };
    assert_matches_centralized(&workload, 3, config);
}

#[test]
fn networked_session_equals_in_memory_driver_and_counts_traffic() {
    let workload = Workload::bird_flu(21, 3, 3, 5).unwrap();
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(6)).unwrap();
    let request = ClusteringRequest {
        weights: schema.uniform_weights(),
        linkage: Linkage::Average,
        num_clusters: 3,
    };

    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());
    let output = driver
        .construct(&setup.holders, &setup.third_party)
        .unwrap();
    let (reference, reference_matrix) = driver.cluster(&output, &request).unwrap();

    let session = ClusteringSession::new(schema.clone(), ProtocolConfig::default(), 3);
    let outcome = session
        .run(&setup.holders, &setup.third_party, &request)
        .unwrap();

    assert_eq!(outcome.result.clusters, reference.clusters);
    assert!(
        outcome
            .final_matrix
            .matrix()
            .max_abs_difference(reference_matrix.matrix())
            < 1e-12
    );
    assert!(outcome.communication.total_bytes() > 0);
    // Every attribute produced a matrix.
    assert_eq!(outcome.per_attribute.len(), schema.len());
}

#[test]
fn diffie_hellman_setup_produces_the_same_result_as_dealer_setup() {
    let workload = Workload::numeric_only(20, 2, 2, 77).unwrap();
    let schema = workload.schema().clone();
    let request = ClusteringRequest {
        weights: schema.uniform_weights(),
        linkage: Linkage::Average,
        num_clusters: 2,
    };
    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());

    let dealer =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(1)).unwrap();
    let dh =
        TrustedSetup::via_diffie_hellman(workload.partitions.clone(), &Seed::from_u64(2)).unwrap();
    let (dealer_result, dealer_matrix) = driver
        .cluster(
            &driver
                .construct(&dealer.holders, &dealer.third_party)
                .unwrap(),
            &request,
        )
        .unwrap();
    let (dh_result, dh_matrix) = driver
        .cluster(
            &driver.construct(&dh.holders, &dh.third_party).unwrap(),
            &request,
        )
        .unwrap();
    // The masks differ, but the recovered distances — hence everything the
    // third party publishes — are identical.
    assert!(
        dealer_matrix
            .matrix()
            .max_abs_difference(dh_matrix.matrix())
            < 1e-9
    );
    assert_eq!(dealer_result.clusters, dh_result.clusters);
}

#[test]
fn ground_truth_is_recovered_on_well_separated_data() {
    let workload = Workload::bird_flu(30, 3, 3, 123).unwrap();
    let schema = workload.schema().clone();
    let setup =
        TrustedSetup::deterministic(workload.partitions.clone(), &Seed::from_u64(4)).unwrap();
    let driver = ThirdPartyDriver::new(schema.clone(), ProtocolConfig::default());
    let output = driver
        .construct(&setup.holders, &setup.third_party)
        .unwrap();
    let (result, _) = driver
        .cluster(
            &output,
            &ClusteringRequest {
                weights: schema.uniform_weights(),
                linkage: Linkage::Average,
                num_clusters: 3,
            },
        )
        .unwrap();
    let truth = ClusterAssignment::from_labels(&workload.ground_truth_in_site_order());
    let published = published_assignment(&result, workload.len());
    let ari = adjusted_rand_index(&published, &truth).unwrap();
    assert!(
        ari > 0.8,
        "expected near-perfect strain recovery, ARI {ari}"
    );
}

/// An alphabet of more than 256 symbols ships its masked strings and CCM
/// cells at 2 bytes each (wire spec §§6.5–6.6), and the session still
/// recovers the plaintext edit distances and matches the in-memory
/// engine oracle bit for bit.
#[test]
fn wide_alphabet_session_ships_two_byte_symbols_and_matches_plaintext() {
    use ppclust::core::alphabet::Alphabet;
    use ppclust::core::distance::edit::edit_distance;
    use ppclust::core::matrix::{DataMatrix, HorizontalPartition};
    use ppclust::core::protocol::engine::{SessionEngine, SessionSpec};
    use ppclust::core::protocol::topic::{AlphaKind, Step, Topic};
    use ppclust::core::record::Record;
    use ppclust::core::schema::{AttributeDescriptor, Schema};
    use ppclust::core::value::AttributeValue;
    use ppclust::net::{ChannelSecurity, Network, PartyId};

    let glyph = |i: u32| char::from_u32(0x100 + i).unwrap();
    let alphabet = Alphabet::new((0..300).map(glyph)).unwrap();
    let schema = Schema::new(vec![AttributeDescriptor::alphanumeric("glyphs", alphabet)]).unwrap();
    // Symbols from both ends of the alphabet, so plaintext indices alone
    // already need two bytes.
    let word = |symbols: &[u32]| -> String { symbols.iter().map(|&i| glyph(i)).collect() };
    let sites: Vec<Vec<String>> = vec![
        vec![word(&[299, 3, 280]), word(&[0, 1, 2, 3])],
        vec![word(&[299, 3, 281, 7]), word(&[])],
        vec![word(&[1, 2, 3]), word(&[260, 261, 262, 263, 264])],
    ];
    let partitions: Vec<HorizontalPartition> = sites
        .iter()
        .enumerate()
        .map(|(site, strings)| {
            let rows = strings
                .iter()
                .map(|s| Record::new(vec![AttributeValue::alphanumeric(s.as_str())]))
                .collect();
            HorizontalPartition::new(
                site as u32,
                DataMatrix::with_rows(schema.clone(), rows).unwrap(),
            )
        })
        .collect();
    let setup = TrustedSetup::deterministic(partitions, &Seed::from_u64(301)).unwrap();
    let request = ClusteringRequest::uniform(&schema, 2);

    let network = Network::with_parties(3);
    let mut parties: Vec<PartyId> = (0..3).map(PartyId::DataHolder).collect();
    parties.push(PartyId::ThirdParty);
    for (i, &a) in parties.iter().enumerate() {
        for &b in &parties[i + 1..] {
            network.set_channel_security(a, b, ChannelSecurity::Plaintext);
        }
    }
    let session =
        ClusteringSession::with_network(schema.clone(), ProtocolConfig::default(), network);
    let outcome = session
        .run(&setup.holders, &setup.third_party, &request)
        .unwrap();

    // Every symbol payload declares 2-byte cells: the byte after the
    // attribute name and the message's u32 counts.
    let mut symbol_payloads = 0;
    for envelope in session.network().eavesdropped() {
        let counts = match Topic::parse(&envelope.topic).unwrap() {
            Topic::Session {
                step: Step::Alphanumeric { kind, .. },
                ..
            } => match kind {
                AlphaKind::Masked => 1,
                AlphaKind::Ccms => 3,
                AlphaKind::CcmsChunk => 5,
            },
            _ => continue,
        };
        let width_at = 4 + "glyphs".len() + 4 * counts;
        assert_eq!(envelope.payload[width_at], 2, "{}", envelope.topic);
        symbol_payloads += 1;
    }
    assert_eq!(symbol_payloads, 6, "masked strings + CCMs per holder pair");

    // The recovered per-attribute matrix is the plaintext edit distance.
    let strings: Vec<&String> = sites.iter().flatten().collect();
    let recovered = &outcome.per_attribute[0].matrix;
    for i in 0..strings.len() {
        for j in 0..i {
            assert_eq!(
                recovered.get(i, j),
                f64::from(edit_distance(strings[i], strings[j])),
                "pair ({i}, {j})"
            );
        }
    }

    // And the session equals the multiplexing engine oracle.
    let mut engine = SessionEngine::new(Network::with_parties(3));
    engine.add_session(SessionSpec {
        schema,
        config: ProtocolConfig::default(),
        holders: setup.holders.clone(),
        keys: setup.third_party.clone(),
        request,
        chunk_rows: Some(1),
    });
    let oracle = &engine.run().unwrap()[0];
    assert_eq!(oracle.result.clusters, outcome.result.clusters);
    let (a, b) = (
        oracle.final_matrix.matrix().condensed_values(),
        outcome.final_matrix.matrix().condensed_values(),
    );
    assert_eq!(a.len(), b.len());
    assert!(a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()));
}
