//! Workload-generator fidelity: the synthetic traces must measure back
//! close to their Table I targets, and survive mixing and file I/O.

use shhc_workload::{characterize, mix, presets};

#[test]
fn table1_targets_reproduced_at_scale_32() {
    // At 1/32 scale each trace still has 65k-750k fingerprints — enough
    // for the statistics to converge near their targets.
    for spec in presets::all() {
        let scaled = spec.clone().scaled(32);
        let trace = scaled.generate();
        let stats = characterize(&trace.fingerprints);

        assert_eq!(stats.total, scaled.total, "{}", spec.name);
        assert!(
            (stats.redundant_fraction - spec.redundancy).abs() < 0.04,
            "{}: redundancy {} vs target {}",
            spec.name,
            stats.redundant_fraction,
            spec.redundancy
        );
        let distance_ratio = stats.mean_duplicate_distance / scaled.mean_distance;
        assert!(
            (0.4..2.5).contains(&distance_ratio),
            "{}: distance {} vs target {}",
            spec.name,
            stats.mean_duplicate_distance,
            scaled.mean_distance
        );
    }
}

#[test]
fn distance_ordering_matches_paper() {
    // The paper's locality ordering: web < home < mail < time machine.
    let measured: Vec<f64> = presets::all()
        .into_iter()
        .map(|spec| {
            let trace = spec.scaled(64).generate();
            characterize(&trace.fingerprints).mean_duplicate_distance
        })
        .collect();
    assert!(
        measured[0] < measured[1] && measured[1] < measured[2] && measured[2] < measured[3],
        "distance ordering broken: {measured:?}"
    );
}

#[test]
fn redundancy_ordering_matches_paper() {
    // Mail server (85%) ≫ home dir (37%) > web server (18%) ≈ TM (17%).
    let measured: Vec<f64> = presets::all()
        .into_iter()
        .map(|spec| {
            let trace = spec.scaled(64).generate();
            characterize(&trace.fingerprints).redundant_fraction
        })
        .collect();
    assert!(measured[2] > measured[1], "mail > home");
    assert!(measured[1] > measured[0], "home > web");
    assert!((measured[0] - measured[3]).abs() < 0.06, "web ≈ TM");
}

#[test]
fn mixing_preserves_stream_counts_and_populations() {
    let traces: Vec<_> = presets::all()
        .into_iter()
        .map(|s| s.scaled(256).generate())
        .collect();
    let mixed = mix(&traces, 11);
    let total: usize = traces.iter().map(|t| t.len()).sum();
    assert_eq!(mixed.len(), total);

    // Characteristics of the mix: redundancy is the weighted average of
    // the components (fingerprint populations are disjoint).
    let stats = characterize(&mixed);
    let expected_unique: usize = traces
        .iter()
        .map(|t| characterize(&t.fingerprints).unique)
        .sum();
    assert_eq!(stats.unique, expected_unique);
}

#[test]
fn generation_is_seed_stable_across_runs() {
    // Regression pin: the generator must stay bit-stable so experiment
    // results are comparable across commits. If this test fails, the
    // generator changed behaviourally — update EXPERIMENTS.md baselines.
    let trace = presets::web_server().scaled(512).generate();
    let stats = characterize(&trace.fingerprints);
    assert_eq!(stats.total, 4091);
    // The first fingerprints are a stable function of (seed, algorithm).
    let again = presets::web_server().scaled(512).generate();
    assert_eq!(trace.fingerprints, again.fingerprints);
}
