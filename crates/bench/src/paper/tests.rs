use super::*;
use std::collections::HashSet;
use velv_obs::json::{self, Json};

#[test]
fn summary_of_times() {
    let [min, max, mean] = summarize(&[0.1, 0.3]);
    assert!((min - 0.1).abs() < 1e-9);
    assert!((max - 0.3).abs() < 1e-9);
    assert!((mean - 0.2).abs() < 1e-9);
    assert_eq!(summarize(&[]), [0.0; 3]);
}

#[test]
fn suite_size_is_scaled_without_env() {
    // The environment variable is not set in tests, so suites are capped.
    assert!(suite_size(100) <= 100);
    assert!(suite_size(5) <= 5);
}

#[test]
fn each_experiment_appears_exactly_once() {
    let mut ids: Vec<&str> = EXPERIMENTS.iter().map(|e| e.id).collect();
    ids.sort_unstable();
    let mut expected = [
        "table1",
        "table2",
        "table3",
        "table4",
        "table5",
        "table6",
        "table7",
        "table8",
        "table9",
        "fig7",
        "fig10",
        "approx",
        "cnf_stats",
        "portfolio",
    ];
    expected.sort_unstable();
    assert_eq!(ids, expected);
}

#[test]
fn every_smoke_cell_is_a_default_cell() {
    let default: HashSet<String> = cells(false).iter().map(key).collect();
    for cell in cells(true) {
        assert!(
            default.contains(&key(&cell)),
            "smoke-only cell {}",
            key(&cell)
        );
    }
    for experiment in EXPERIMENTS {
        let rows = (experiment.rows)(true);
        assert!(!rows.is_empty(), "{} has no smoke rows", experiment.id);
    }
}

#[test]
fn the_ledger_json_parses_back_with_its_claims() {
    // Placeholder outcomes: the document's shape does not depend on what
    // was measured.  The committed ledger must read back the same way.
    let outcomes: BTreeMap<String, Outcome> = cells(true)
        .iter()
        .map(|c| (key(c), Outcome::default()))
        .collect();
    let generated = Ledger::new(true, 0.0, outcomes).to_json();
    for text in [
        generated.as_str(),
        include_str!("../../../../BENCH_paper.json"),
    ] {
        let parsed = json::parse(text).expect("the ledger is valid JSON");
        let claims = parsed
            .get("claims")
            .and_then(Json::as_array)
            .expect("claims");
        let expected: usize = EXPERIMENTS.iter().map(|e| e.claims.len()).sum();
        assert_eq!(claims.len(), expected);
        for claim in claims {
            assert!(claim.get("experiment").and_then(Json::as_str).is_some());
            assert!(claim.get("text").and_then(Json::as_str).is_some());
            let kind = claim.get("kind").and_then(Json::as_str);
            assert!(matches!(kind, Some("exact" | "timing")), "{claim:?}");
            assert!(
                matches!(claim.get("holds"), Some(Json::Bool(_))),
                "{claim:?}"
            );
        }
        let experiments = parsed.get("experiments").and_then(Json::as_array);
        assert_eq!(experiments.map(<[Json]>::len), Some(EXPERIMENTS.len()));
    }
}
