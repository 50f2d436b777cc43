//! Known solver disagreements, pinned as committed reproducers until a
//! fix lands. A replay must fail exactly the recorded checks with the
//! recorded measurements, so a fix turns its test red on purpose; the
//! reproducer then becomes a regression test that asserts agreement.

use oftec_fleet::minimize::ReproCase;

/// Replays `json` and checks it still fails exactly `checks`, with the
/// recorded measurements.
fn replays_exactly(json: &str, checks: &[&str]) {
    let case: ReproCase = serde_json::from_str(json).expect("parse reproducer");
    assert!(
        case.fault.is_none(),
        "a genuine divergence, not an injected fault"
    );
    let recorded: Vec<&str> = case.failures.iter().map(|d| d.check.as_str()).collect();
    assert_eq!(recorded, checks);
    let failures = case.replay().expect("reproducer builds");
    assert_eq!(failures, case.failures, "scenario {}", case.spec.id);
}

/// Seed 20260808, shard 1, index 29 (a 3×3-tile synthetic grid at
/// 47.7 °C ambient): trust region stops at 11.5688 W while SQP and
/// interior point both reach 11.2787 W, a 2.57% spread against the 2%
/// allowed. The fleet smoke's 1-in-16 cross-check never samples it;
/// `oftec-fleet run --seed 20260808 --shards 2 --per-shard 200
/// --cross-check-divisor 4` does.
#[test]
fn trust_region_stops_short_on_20260808_1_29() {
    replays_exactly(
        include_str!("repro/nlp_spread_20260808_1_29.json"),
        &["nlp_spread"],
    );
}

/// Seed 42, shard 2, index 288: the shared start (0.5, 0.5) sits at
/// 363.38 K, above T_max = 363.15 K, so interior point refuses it as a
/// bad start and has nothing feasible to report, while the grid optimum
/// clears T_max by 1.81 K. Found by `oftec-fleet run --seed 42 --shards 8
/// --per-shard 1250 --cross-check-divisor 16`.
#[test]
fn interior_point_rejects_an_infeasible_start_on_42_2_288() {
    replays_exactly(
        include_str!("repro/ip_missing_feasible_42_2_288.json"),
        &["interior_point_missing_feasible"],
    );
}
