//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, as the last line of standard output,
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.

use eppi_perfbench::lifecycle::{Metric, Outcome};
use eppi_perfbench::{run, shape, Plan};
use std::fmt::Write as _;
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected a value in (0, 600]"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn json(outcome: &Outcome, metrics: &[Metric]) -> String {
    let mut out = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    );
    for (i, m) in metrics.iter().enumerate() {
        // Non-finite values are not JSON; report them as null so the
        // run is visibly broken rather than unparsable.
        let value = if m.value.is_finite() {
            format!("{:?}", m.value)
        } else {
            "null".to_string()
        };
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            out,
            "{sep}\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
            m.name, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(target_os = "linux")]
mod affinity {
    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// Restricts the calling thread, and every thread it starts later,
    /// to the highest-numbered CPU it may run on; returns that CPU.
    pub fn pin_to_one_cpu() -> Option<usize> {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a writable buffer of exactly `size` bytes,
        // and pid 0 names the calling thread.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let cpu = (0..64 * mask.len())
            .rev()
            .find(|&c| (mask[c / 64] >> (c % 64)) & 1 == 1)?;
        let mut one = [0u64; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        // SAFETY: `one` is a readable buffer of exactly `size` bytes,
        // and pid 0 names the calling thread.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(cpu)
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    pub fn pin_to_one_cpu() -> Option<usize> {
        None
    }
}

fn main() -> ExitCode {
    // Before any thread starts: the benchmark measures a single-CPU
    // deployment. On a shared virtual machine, handing a query between
    // threads on two vCPUs waits on whichever vCPU the hypervisor has
    // descheduled, which made closed-loop throughput differ 2x between
    // runs; on one CPU the hand-offs are plain context switches, so
    // cross-core hand-off costs are out of its scope. One client runs on
    // the main thread; engines keep one shard per host CPU.
    let host_cpus = std::thread::available_parallelism().map_or(1, |p| p.get());
    match affinity::pin_to_one_cpu() {
        Some(cpu) => println!("# pinned to cpu {cpu}"),
        None => println!("# running unpinned"),
    }
    let args = match parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let Some(shape) = shape::by_name(&args.workload) else {
        eprintln!("perfbench: unknown workload {:?}", args.workload);
        return ExitCode::from(2);
    };
    let store_root =
        std::path::PathBuf::from(".perfbench_store").join(std::process::id().to_string());
    let plan = Plan::timed(&shape, args.seconds, args.trace, host_cpus);
    let outcome = run(&shape, args.seed, &plan, &store_root);
    let _ = std::fs::remove_dir(".perfbench_store");
    for failure in &outcome.failures {
        eprintln!("perfbench: check failed: {failure}");
    }
    let metrics = if args.trace {
        println!("# span count total_ms self_ms");
        for (name, agg) in &outcome.spans.by_name {
            println!(
                "# {name} {} {:.3} {:.3}",
                agg.count,
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6
            );
        }
        &outcome.per_layer
    } else {
        &outcome.end_to_end
    };
    for m in metrics {
        println!("# {} = {} {}", m.name, m.value, m.unit);
    }
    println!("{}", json(&outcome, metrics));
    ExitCode::SUCCESS
}
