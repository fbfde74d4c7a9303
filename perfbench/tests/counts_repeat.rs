//! The count metrics must repeat exactly: two traced runs with one seed
//! at a small size report the same gates, messages, bytes, rounds,
//! words scanned, WAL bytes, fsyncs and proof bytes.

use eppi_perfbench::{run, Plan, Shape};
use eppi_workload::presets::Preset;

const COUNTS: [&str; 12] = [
    "mpc.and_gates_per_epoch",
    "net.messages_per_epoch",
    "net.bytes_per_epoch",
    "net.rounds_per_epoch",
    "mpc.and_gates_per_delta",
    "pir.words_per_query",
    "pir.answer_bytes_per_query",
    "durability.wal_bytes_per_commit",
    "durability.fsyncs_per_commit",
    "durability.checkpoint_mb",
    "audit.proof_kb",
    "trace.dropped_events",
];

/// The paper's miniature preset (250 providers, 500 owners), unaudited
/// like every workload; the audit figures come from the run's probe.
const SMALL: Shape = Shape {
    name: "small",
    preset: Preset::Mini,
    split: [1.0, 1.0, 1.0],
};

#[test]
fn count_metrics_repeat_exactly() {
    let root = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let plan = Plan::counted(2, 60, true, 2);
    let runs: Vec<_> = (0..2)
        .map(|r| run(&SMALL, 7, &plan, &root.join(format!("counts-{r}"))))
        .collect();
    for outcome in &runs {
        assert_eq!(outcome.failed, 0, "failures: {:?}", outcome.failures);
        assert!(outcome.attempted > 0);
    }
    for name in COUNTS {
        let value = |r: usize| {
            runs[r]
                .per_layer
                .iter()
                .find(|m| m.name == name)
                .unwrap_or_else(|| panic!("{name} missing"))
                .value
        };
        assert_eq!(value(0), value(1), "{name} differs between runs");
        if name != "trace.dropped_events" {
            assert!(value(0) > 0.0, "{name} is zero");
        }
    }
}
