//! One workload run: set-up, then rounds of plaintext serving, private
//! serving, delta commits, epoch builds and crash recoveries, with every
//! output checked against the benchmark's own copies of the matrices.
//!
//! Each round gives every phase a short slice, so every metric samples
//! the whole run: a burst of load from elsewhere on the host lands on
//! all metrics a little instead of on one metric a lot. Each round's
//! latency is the median over its operations, its throughput that of
//! its slice; a run reports the median over rounds.

use crate::inputs::{draw_owner, DeltaStream, Inputs};
use crate::shape::Shape;
use crate::spans::SpanTable;
use crate::stats::{mean, median, quantile};
use eppi_audit::{prove_column_traced, verify_column_traced, ColumnCommitment, ColumnStatement};
use eppi_core::delta::IndexDelta;
use eppi_core::model::{MembershipMatrix, OwnerId, ProviderId, PublishedIndex};
use eppi_core::rows::row_words;
use eppi_core::rowstore::RowBackend;
use eppi_durability::DurableStore;
use eppi_protocol::{
    construct_distributed_with_registry, construct_epoch_with_registry, verify_commitments,
    AuditConfig, ConstructionReport, IndexEpoch, ProtocolConfig, StageReport,
};
use eppi_serve::{PrivateClient, PrivateEngine, ServeConfig, ServeEngine};
use eppi_telemetry::{MetricValue, Registry};
use eppi_trace::{SpanCtx, TraceConfig, Tracer};
use std::cell::{Cell, RefCell};
use std::path::Path;
use std::time::{Duration, Instant};

/// Owners per batch request, plaintext and private.
const BATCH: usize = 64;
/// Delta epochs kept for the install ping-pong of the plaintext phase.
const INSTALL_EPOCHS: usize = 8;
/// Length of one round of a timed run.
const ROUND: Duration = Duration::from_secs(1);
/// Full set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Rounds between two more epoch-0 builds (`epoch_build_s` is taken
/// over the set-up and round builds).
const BUILD_EVERY: usize = 4;
/// Deltas committed after the checkpoint and pending in the log at the
/// simulated crash.
const PENDING_RECORDS: usize = 16;
/// Plaintext owners answered between two delta installs.
const INSTALL_EVERY: u64 = 2_000;
/// In a traced run, serving slices alternate between an untraced and a
/// traced engine until this many traced plaintext queries, and traced
/// private queries, were made: sized with [`RING`] so that no event is
/// dropped.
const TRACED_PLAIN: u64 = 12_000;
const TRACED_PRIVATE: u64 = 2_000;
/// Ring slots per thread of the tracer.
const RING: usize = 1 << 18;

/// One reported figure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Operations and checks attempted.
    pub attempted: u64,
    /// Operations and checks that failed.
    pub failed: u64,
    /// Descriptions of the first failures.
    pub failures: Vec<String>,
    /// The end-to-end figures.
    pub end_to_end: Vec<Metric>,
    /// The per-layer figures (traced runs only).
    pub per_layer: Vec<Metric>,
    /// Span attribution (traced runs only).
    pub spans: SpanTable,
}

/// How long one slice runs: wall-clock time, or a fixed operation count
/// (used by the count-repeatability test).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// Run for this long.
    Time(Duration),
    /// Run exactly this many operations.
    Ops(u64),
}

/// The shape of one run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Plan {
    /// Start rounds until this much time has passed since set-up ended.
    pub until: Option<Duration>,
    /// Run at least this many rounds.
    pub min_rounds: usize,
    /// Slice budgets: plaintext singles, plaintext batches, private
    /// singles, private batches, delta commits.
    pub slices: [Budget; 5],
    /// Record spans and report per-layer figures.
    pub trace: bool,
    /// Serve shards (and worker threads) per engine.
    pub shards: usize,
}

impl Plan {
    /// Rounds of [`ROUND`] for `seconds`, split over the phases by the
    /// shape's shares.
    pub fn timed(shape: &Shape, seconds: f64, trace: bool, shards: usize) -> Plan {
        let share = |part: f64| Budget::Time(ROUND.mul_f64(part));
        let [plain, private, commit] = shape.split;
        Plan {
            until: Some(Duration::from_secs_f64(seconds)),
            min_rounds: 1,
            slices: [
                share(plain * 0.6),
                share(plain * 0.4),
                share(private * 0.5),
                share(private * 0.5),
                share(commit),
            ],
            trace,
            shards,
        }
    }

    /// Exactly `rounds` rounds of `ops` operations per slice.
    pub fn counted(rounds: usize, ops: u64, trace: bool, shards: usize) -> Plan {
        Plan {
            until: None,
            min_rounds: rounds,
            slices: [Budget::Ops(ops); 5],
            trace,
            shards,
        }
    }
}

/// Admission for one slice.
struct Gate {
    start: Instant,
    budget: Budget,
    used: u64,
}

impl Gate {
    fn new(budget: Budget) -> Gate {
        Gate {
            start: Instant::now(),
            budget,
            used: 0,
        }
    }

    /// Admits one more operation.
    fn take(&mut self) -> bool {
        self.used += 1;
        match self.budget {
            Budget::Time(d) => self.start.elapsed() < d,
            Budget::Ops(n) => self.used <= n,
        }
    }

    fn elapsed_s(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

/// Attempted and failed operations.
#[derive(Default)]
struct Tally {
    attempted: Cell<u64>,
    failed: Cell<u64>,
    failures: RefCell<Vec<String>>,
}

impl Tally {
    fn check(&self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted.set(self.attempted.get() + 1);
        if !ok {
            self.failed.set(self.failed.get() + 1);
            let mut failures = self.failures.borrow_mut();
            if failures.len() < 16 {
                failures.push(what());
            }
        }
    }
}

/// One epoch of the install ping-pong: what the benchmark expects the
/// engine to serve at a version mapped to it.
struct Kept {
    published: PublishedIndex,
    /// The published matrix transposed by the benchmark itself: owner
    /// `o`'s providers are the set bits of `owner_rows[o * words..][..words]`.
    owner_rows: Vec<u64>,
    /// Words per owner row.
    words: usize,
    /// Owners whose columns differ from the previous kept epoch.
    touched: Vec<OwnerId>,
}

impl Kept {
    /// Keeps `published` after checking that it holds every true
    /// membership of `raw` (100% recall), so an answer equal to its row
    /// holds every true provider.
    fn new(
        published: &PublishedIndex,
        raw: &MembershipMatrix,
        touched: Vec<OwnerId>,
        tally: &Tally,
    ) -> Kept {
        tally.check(full_recall(raw, published.matrix()), || {
            "a kept epoch drops a true membership".into()
        });
        let matrix = published.matrix();
        let words = row_words(matrix.providers());
        let mut owner_rows = vec![0u64; matrix.owners() * words];
        for p in matrix.provider_ids() {
            let (pw, pb) = (p.index() / 64, p.index() % 64);
            for (w, &word) in matrix.row_words(p).iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let o = w * 64 + bits.trailing_zeros() as usize;
                    owner_rows[o * words + pw] |= 1 << pb;
                    bits &= bits - 1;
                }
            }
        }
        Kept {
            published: published.clone(),
            owner_rows,
            words,
            touched,
        }
    }

    /// Whether `answer` lists exactly the published providers of `owner`,
    /// ascending; an owner beyond the index has none.
    fn answers(&self, owner: OwnerId, answer: &[ProviderId]) -> bool {
        let Some(row) = self
            .owner_rows
            .get(owner.index() * self.words..(owner.index() + 1) * self.words)
        else {
            return answer.is_empty();
        };
        let set: u32 = row.iter().map(|w| w.count_ones()).sum();
        answer.len() == set as usize
            && answer.windows(2).all(|p| p[0] < p[1])
            && answer.iter().all(|p| {
                let i = p.index();
                i < 64 * self.words && (row[i / 64] >> (i % 64)) & 1 == 1
            })
    }
}

/// The kept epoch an engine serves at `version`: installs walk the kept
/// epochs forward and back (0, 1, …, K, K−1, …, 0, 1, …).
fn kept_at(version: u64, k: usize) -> usize {
    let r = (version % (2 * k as u64)) as usize;
    if r <= k {
        r
    } else {
        2 * k - r
    }
}

/// A plaintext answer is correct when it equals the published row at a
/// version the engine held while the query was in flight (and so holds
/// every true provider of that epoch). A worker may still hold the
/// version before `v0`: the engine stamps its version before the
/// install message reaches the worker.
fn plain_answer_ok(kept: &[Kept], owner: OwnerId, answer: &[ProviderId], v0: u64, v1: u64) -> bool {
    let k = kept.len() - 1;
    (v0.saturating_sub(1)..=v1).any(|v| kept[kept_at(v, k)].answers(owner, answer))
}

/// Owners whose true frequency reaches their public threshold — the
/// cleartext count CountBelow must reveal.
fn cleartext_commons(matrix: &MembershipMatrix, thresholds: &[u64]) -> u64 {
    matrix
        .frequencies()
        .iter()
        .zip(thresholds)
        .filter(|(&f, &t)| f as u64 >= t)
        .count() as u64
}

/// Every true membership is published (truthful publication).
fn full_recall(raw: &MembershipMatrix, published: &MembershipMatrix) -> bool {
    raw.provider_ids().all(|p| {
        raw.row_words(p)
            .iter()
            .zip(published.row_words(p))
            .all(|(r, q)| r & !q == 0)
    })
}

/// One telemetry registry per concern, so each figure reads only its
/// own instruments.
#[derive(Default)]
struct Regs {
    build: Registry,
    lineage: Registry,
    recover: Registry,
    boot: Registry,
    plain: Registry,
    private: Registry,
    probe: Registry,
}

/// The running engines of one set-up.
struct Engines {
    plain: ServeEngine,
    /// A traced twin of `plain` over the same index (traced runs only).
    plain_traced: Option<ServeEngine>,
    private: PrivateEngine,
    /// A traced twin of `private` (traced runs only).
    private_traced: Option<PrivateEngine>,
}

impl Engines {
    fn start(index: &PublishedIndex, config: ServeConfig, regs: &Regs, tracer: &Tracer) -> Engines {
        let traced = tracer.enabled();
        Engines {
            plain: ServeEngine::start_with_registry(index, config, &regs.plain),
            plain_traced: traced.then(|| {
                ServeEngine::start_traced(index, config, &Registry::new(), tracer.clone())
            }),
            private: PrivateEngine::start_with_registry(index, config, &regs.private),
            private_traced: traced.then(|| {
                PrivateEngine::start_traced(index, config, &Registry::new(), tracer.clone())
            }),
        }
    }

    fn plain_engines(&self) -> Vec<&ServeEngine> {
        std::iter::once(&self.plain)
            .chain(self.plain_traced.as_ref())
            .collect()
    }

    /// Row storage the untraced engines hold (the traced twins exist
    /// only in traced runs).
    fn resident_bytes(&self) -> usize {
        [
            &self.plain,
            self.private.replica_a(),
            self.private.replica_b(),
        ]
        .iter()
        .map(|e| e.current().resident_bytes())
        .sum()
    }

    fn shutdown(&self) {
        for e in self.plain_engines() {
            e.shutdown();
        }
        self.private.shutdown();
        if let Some(e) = &self.private_traced {
            e.shutdown();
        }
    }
}

/// Installs at a fixed query interval, walking the kept epochs.
struct Installer<'a> {
    kept: &'a [Kept],
    trace: bool,
    tracer: &'a Tracer,
    tally: &'a Tally,
    version: Cell<u64>,
    answered: Cell<u64>,
    install_ms: RefCell<Vec<f64>>,
    shard_apply_ms: RefCell<Vec<f64>>,
}

impl Installer<'_> {
    /// Counts `owners` answered queries and installs the next kept epoch
    /// on every plaintext engine when an interval boundary is crossed.
    fn answered(&self, owners: u64, engines: &Engines) {
        let before = self.answered.get();
        self.answered.set(before + owners);
        if before / INSTALL_EVERY == (before + owners) / INSTALL_EVERY {
            return;
        }
        let version = self.version.get();
        let next = version + 1;
        let k = self.kept.len() - 1;
        let (from, to) = (kept_at(version, k), kept_at(next, k));
        let target = &self.kept[to].published;
        let touched = &self.kept[from.max(to)].touched;
        for (i, engine) in engines.plain_engines().into_iter().enumerate() {
            if self.trace && i == 0 {
                // The copy-on-write rebuild alone, without the publish.
                let started = Instant::now();
                let built = {
                    let _span = self.tracer.root("bench.shard_apply_delta");
                    engine.current().apply_delta(target, touched, next)
                };
                self.shard_apply_ms
                    .borrow_mut()
                    .push(started.elapsed().as_secs_f64() * 1e3);
                drop(built);
            }
            let started = Instant::now();
            let result = {
                let _span = self.tracer.root("bench.install");
                engine.apply_delta(target, touched)
            };
            if i == 0 {
                self.install_ms
                    .borrow_mut()
                    .push(started.elapsed().as_secs_f64() * 1e3);
            }
            self.tally.check(result == Ok(next), || {
                format!("install of version {next} returned {result:?}")
            });
        }
        self.version.set(next);
    }
}

/// The write side of the lineage: the live store, the raw matrix it
/// tracks and the delta stream.
struct Lineage {
    store: DurableStore,
    matrix: MembershipMatrix,
    deltas: DeltaStream,
    head: IndexEpoch,
}

/// Timing samples gathered over the rounds (seconds, milliseconds or
/// nanoseconds as named).
#[derive(Default)]
struct Samples {
    setup_s: Vec<f64>,
    build_s: Vec<f64>,
    plain_ns: Vec<f64>,
    plain_traced_ns: Vec<f64>,
    plain_qps: Vec<f64>,
    batch_qps: Vec<f64>,
    private_ns: Vec<f64>,
    private_batch_qps: Vec<f64>,
    commit_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    gates_per_delta: Vec<f64>,
    /// Per-round medians of the per-operation samples above.
    round_plain_us: Vec<f64>,
    round_private_ms: Vec<f64>,
    round_commit_ms: Vec<f64>,
    round_install_ms: Vec<f64>,
}

impl Samples {
    /// Where each per-operation sample list ends, at the start of a
    /// round.
    fn marks(&self, installs: usize) -> [usize; 4] {
        [
            self.plain_ns.len(),
            self.private_ns.len(),
            self.commit_ms.len(),
            installs,
        ]
    }

    /// Closes a round: the median of each list's new samples becomes
    /// that round's figure.
    fn close_round(&mut self, marks: [usize; 4], installs: &[f64]) {
        let new = |all: &[f64], from: usize| (all.len() > from).then(|| median(&all[from..]));
        if let Some(m) = new(&self.plain_ns, marks[0]) {
            self.round_plain_us.push(m / 1e3);
        }
        if let Some(m) = new(&self.private_ns, marks[1]) {
            self.round_private_ms.push(m / 1e6);
        }
        if let Some(m) = new(&self.commit_ms, marks[2]) {
            self.round_commit_ms.push(m);
        }
        if let Some(m) = new(installs, marks[3]) {
            self.round_install_ms.push(m);
        }
    }
}

/// The fixed context of one run.
struct Bench<'a> {
    shape: &'a Shape,
    plan: &'a Plan,
    inputs: Inputs,
    protocol: ProtocolConfig,
    audit: AuditConfig,
    serve_config: ServeConfig,
    regs: Regs,
    tally: Tally,
    tracer: Tracer,
    /// Small-ring tracer for the engines booted by recoveries, which
    /// record one query each.
    boot_tracer: Tracer,
}

impl Bench<'_> {
    /// Builds epoch 0 from the inputs.
    fn build(&self) -> IndexEpoch {
        let _span = self.tracer.root("bench.epoch_build");
        construct_epoch_with_registry(
            &self.inputs.matrix,
            &self.inputs.epsilons,
            &self.protocol,
            &self.regs.build,
        )
        .expect("epoch construction")
    }

    /// Commits the next delta; returns the delta and the new head when
    /// the commit succeeded and its outputs check out.
    fn commit(
        &self,
        lineage: &mut Lineage,
        samples: &mut Samples,
        timed: bool,
    ) -> Option<IndexDelta> {
        let delta = lineage
            .deltas
            .next(&mut lineage.matrix, &self.inputs.epsilons);
        let started = Instant::now();
        let out = {
            let _span = self.tracer.root("bench.commit");
            lineage
                .store
                .advance_with_registry(&lineage.matrix, &delta, &self.regs.lineage)
        };
        let wall = started.elapsed();
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                self.tally.check(false, || format!("commit failed: {e}"));
                return None;
            }
        };
        if timed {
            samples.commit_ms.push(wall.as_secs_f64() * 1e3);
        }
        samples.gates_per_delta.push(and_gates(&out.report) as f64);
        self.tally
            .check(out.epoch.epoch() == lineage.head.epoch() + 1, || {
                format!("commit of epoch {} unchecked", lineage.head.epoch() + 1)
            });
        lineage.head = out.epoch;
        Some(delta)
    }

    /// One slice of closed-loop plaintext single queries. `traced`
    /// carries the traced queries the client may still make; such a
    /// slice uses the traced engine and stops there.
    fn plain_singles(
        &self,
        engines: &Engines,
        installer: &Installer<'_>,
        round: u64,
        traced: Option<u64>,
        samples: &mut Samples,
    ) {
        let cap = traced.unwrap_or(u64::MAX);
        let engine = if traced.is_some() {
            engines.plain_traced.as_ref().expect("traced engine")
        } else {
            &engines.plain
        };
        let mut gate = Gate::new(self.plan.slices[0]);
        let mut rng = self.inputs.stream(0x100 + (round << 8));
        let client = engine.client();
        let mut lat = Vec::new();
        while (lat.len() as u64) < cap && gate.take() {
            let owner = self.inputs.popularity.sample(&mut rng);
            let v0 = engine.version();
            let started = Instant::now();
            let answer = client.query(owner);
            lat.push(started.elapsed().as_nanos() as f64);
            let v1 = engine.version();
            self.tally.check(
                plain_answer_ok(installer.kept, owner, &answer, v0, v1),
                || format!("plaintext answer for {owner:?} at {v0}..={v1}"),
            );
            installer.answered(1, engines);
        }
        if traced.is_some() {
            samples.plain_traced_ns.extend(lat);
        } else {
            samples.plain_qps.push(lat.len() as f64 / gate.elapsed_s());
            samples.plain_ns.extend(lat);
        }
    }

    /// One slice of closed-loop plaintext batches; returns the owners
    /// asked for.
    fn plain_batches(
        &self,
        engines: &Engines,
        installer: &Installer<'_>,
        round: u64,
        samples: &mut Samples,
    ) -> u64 {
        let mut gate = Gate::new(self.plan.slices[1]);
        let mut rng = self.inputs.stream(0x200 + (round << 8));
        let client = engines.plain.client();
        let mut asked = 0u64;
        while gate.take() {
            let owners = self.inputs.popularity.batch(BATCH, &mut rng);
            let v0 = engines.plain.version();
            let answers = client.query_batch(&owners);
            let v1 = engines.plain.version();
            let ok = answers.len() == owners.len()
                && owners
                    .iter()
                    .zip(&answers)
                    .all(|(&o, a)| plain_answer_ok(installer.kept, o, a, v0, v1));
            self.tally
                .check(ok, || format!("plaintext batch at {v0}..={v1}"));
            asked += BATCH as u64;
            installer.answered(BATCH as u64, engines);
        }
        samples.batch_qps.push(asked as f64 / gate.elapsed_s());
        asked
    }

    /// Words one private query scans: a full index on each replica.
    fn words_per_scan(&self) -> u64 {
        (2 * self.shape.owners() * row_words(self.shape.providers())) as u64
    }

    /// One slice of private single queries from one client. `traced`
    /// carries the traced queries the client may still make.
    fn private_singles(
        &self,
        client: &mut PrivateClient,
        engine: &PrivateEngine,
        kept: &Kept,
        rng: &mut rand::rngs::StdRng,
        traced: Option<u64>,
        samples: &mut Samples,
    ) -> (u64, u64, u64) {
        let cap = traced.unwrap_or(u64::MAX);
        let words_per_scan = self.words_per_scan();
        let mut gate = Gate::new(self.plan.slices[2]);
        let (mut words, mut bytes, mut queries) = (0, 0, 0);
        while queries < cap && gate.take() {
            let owner = draw_owner(&self.inputs.popularity, self.shape.owners(), rng);
            let (words0, bytes0) = (
                engine.stats().pir_scanned_words(),
                engine.stats().pir_answer_bytes(),
            );
            let started = Instant::now();
            let answer = client.query(owner);
            let wall = started.elapsed().as_nanos() as f64;
            let scanned = engine.stats().pir_scanned_words() - words0;
            if traced.is_none() {
                samples.private_ns.push(wall);
            }
            words += scanned;
            bytes += engine.stats().pir_answer_bytes() - bytes0;
            queries += 1;
            self.tally.check(
                kept.answers(owner, &answer) && scanned == words_per_scan,
                || format!("private answer for {owner:?} ({scanned} words scanned)"),
            );
        }
        (words, bytes, queries)
    }

    /// One slice of private batches from one client.
    fn private_batches(
        &self,
        client: &mut PrivateClient,
        engine: &PrivateEngine,
        kept: &Kept,
        rng: &mut rand::rngs::StdRng,
        samples: &mut Samples,
    ) {
        let words_per_scan = self.words_per_scan();
        let mut gate = Gate::new(self.plan.slices[3]);
        let mut owners_asked = 0u64;
        while gate.take() {
            let owners: Vec<OwnerId> = (0..BATCH)
                .map(|_| draw_owner(&self.inputs.popularity, self.shape.owners(), rng))
                .collect();
            let words0 = engine.stats().pir_scanned_words();
            let answers = client.query_batch(&owners);
            let scanned = engine.stats().pir_scanned_words() - words0;
            let ok = answers.len() == owners.len()
                && scanned == words_per_scan
                && owners
                    .iter()
                    .zip(&answers)
                    .all(|(&o, a)| kept.answers(o, a));
            self.tally
                .check(ok, || format!("private batch ({scanned} words scanned)"));
            owners_asked += BATCH as u64;
        }
        samples
            .private_batch_qps
            .push(owners_asked as f64 / gate.elapsed_s());
    }

    /// Opens the crashed store image, boots an engine from it and asks
    /// one query; the head must be the last acknowledged one.
    fn recover(&self, crashed: &Path, acked: &IndexEpoch, samples: &mut Samples) {
        let probe = self.inputs.popularity.hottest();
        let started = Instant::now();
        let (store, recovery) =
            DurableStore::open_traced(crashed, &self.regs.recover, &self.tracer)
                .expect("recovery of the crashed store");
        let engine = {
            let _span = self.tracer.root("bench.boot");
            ServeEngine::from_store_traced(
                &store,
                self.serve_config,
                &self.regs.boot,
                self.boot_tracer.clone(),
            )
        };
        let answer = engine.client().query(probe);
        samples
            .recover_ms
            .push(started.elapsed().as_secs_f64() * 1e3);
        let head = store.head();
        let ok = recovery.replayed == PENDING_RECORDS
            && recovery.tail_defect.is_none()
            && head.epoch() == acked.epoch()
            && head.index() == acked.index()
            && answer == acked.index().query(probe);
        self.tally.check(ok, || {
            format!(
                "recovered epoch {} after {} replays, expected epoch {}",
                head.epoch(),
                recovery.replayed,
                acked.epoch()
            )
        });
        engine.shutdown();
    }
}

fn and_gates(report: &ConstructionReport) -> u64 {
    (report.count_stage.circuit.and_gates + report.mix_stage.circuit.and_gates) as u64
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Mean over every histogram named `name` in `registries` (all label
/// sets), in nanoseconds; 0 when nothing was recorded.
fn hist_mean_ns(registries: &[&Registry], name: &str) -> f64 {
    let (sum, count) = registries
        .iter()
        .flat_map(|r| {
            r.snapshot()
                .family(name)
                .into_iter()
                .cloned()
                .collect::<Vec<_>>()
        })
        .filter_map(|m| match m.value {
            MetricValue::Histogram(h) => Some((h.sum as f64, h.count as f64)),
            _ => None,
        })
        .fold((0.0, 0.0), |(s, c), (hs, hc)| (s + hs, c + hc));
    if count == 0.0 {
        0.0
    } else {
        sum / count
    }
}

/// Copies the store's files into `to`: the on-disk image a crash at
/// this moment leaves behind (every acknowledged record is synced).
fn crash_image(from: &Path, to: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(to)?;
    for entry in std::fs::read_dir(from)? {
        let entry = entry?;
        std::fs::copy(entry.path(), to.join(entry.file_name()))?;
    }
    Ok(())
}

/// Runs one workload under `plan`, keeping its store directories under
/// `store_root`.
///
/// # Panics
///
/// Panics when the program fails to set up (construction or store
/// creation error) or the crashed store cannot be opened at all:
/// nothing after it could be measured.
pub fn run(shape: &Shape, seed: u64, plan: &Plan, store_root: &Path) -> Outcome {
    let (tracer, boot_tracer) = if plan.trace {
        let config = |slots| TraceConfig {
            capacity_per_thread: slots,
            slow_threshold: None,
        };
        (Tracer::new(config(RING)), Tracer::new(config(1 << 10)))
    } else {
        (Tracer::disabled(), Tracer::disabled())
    };
    let mut samples = Samples::default();
    let _ = std::fs::remove_dir_all(store_root);

    // Set-up, several times: generate, build epoch 0, create the store,
    // start the engines. The last set-up is kept.
    let mut bench: Option<Bench> = None;
    let mut kept_setup = None;
    for s in 0..SETUPS {
        let dir = store_root.join(format!("setup-{s}"));
        let started = Instant::now();
        let inputs = {
            let _span = tracer.root("bench.generate");
            Inputs::generate(shape, seed)
        };
        let bench = match &mut bench {
            Some(bench) => {
                bench.inputs = inputs;
                bench
            }
            None => bench.insert(Bench {
                shape,
                plan,
                inputs,
                protocol: ProtocolConfig {
                    seed,
                    ..ProtocolConfig::default()
                },
                audit: AuditConfig {
                    prover_seed: seed ^ 0xa0d17,
                    ..AuditConfig::default()
                },
                serve_config: ServeConfig {
                    shards: plan.shards,
                    queue_depth: 1024,
                    backend: RowBackend::Compressed,
                    telemetry: true,
                },
                regs: Regs::default(),
                tally: Tally::default(),
                tracer: tracer.clone(),
                boot_tracer: boot_tracer.clone(),
            }),
        };
        let build_started = Instant::now();
        let epoch = bench.build();
        samples.build_s.push(build_started.elapsed().as_secs_f64());
        let store = DurableStore::create_with_registry(&dir, &epoch, &bench.regs.lineage)
            .expect("store creation");
        let engines = {
            let _span = tracer.root("bench.serve_start");
            Engines::start(epoch.index(), bench.serve_config, &bench.regs, &tracer)
        };
        samples.setup_s.push(started.elapsed().as_secs_f64());
        if s + 1 < SETUPS {
            engines.shutdown();
            drop(store);
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            kept_setup = Some((epoch, store, engines, dir));
        }
    }
    let bench = bench.expect("at least one set-up");
    let (epoch0, store, engines, dir) = kept_setup.expect("at least one set-up");
    let tally = &bench.tally;
    let inputs = &bench.inputs;

    // Epoch 0: CountBelow's count against the cleartext count (recall
    // is checked as it is kept below).
    tally.check(
        epoch0.common_count() == cleartext_commons(&inputs.matrix, epoch0.thresholds()),
        || "epoch 0 common count differs from the cleartext count".into(),
    );

    // The install epochs: the first deltas of the lineage, kept with
    // the benchmark's own copies of their raw and published matrices.
    let mut lineage = Lineage {
        store,
        matrix: inputs.matrix.clone(),
        deltas: DeltaStream::new(shape, inputs),
        head: epoch0.clone(),
    };
    let mut kept = vec![Kept::new(epoch0.index(), &inputs.matrix, Vec::new(), tally)];
    while kept.len() <= INSTALL_EPOCHS {
        if let Some(delta) = bench.commit(&mut lineage, &mut samples, false) {
            kept.push(Kept::new(
                lineage.head.index(),
                &lineage.matrix,
                delta.touched(),
                tally,
            ));
        }
    }

    // The crash image: a checkpoint, then deltas left pending in the
    // log, then a copy of the store's files as a crash leaves them.
    let receipt = {
        let _span = tracer.root("bench.checkpoint");
        lineage.store.checkpoint().expect("checkpoint")
    };
    for _ in 0..PENDING_RECORDS {
        bench.commit(&mut lineage, &mut samples, false);
    }
    let acked = lineage.head.clone();
    let crashed = store_root.join("crashed");
    crash_image(&dir, &crashed).expect("copy of the store files");

    // Warm-up, then the measured rounds.
    let installer = Installer {
        kept: &kept,
        trace: plan.trace,
        tracer: &tracer,
        tally,
        version: Cell::new(0),
        answered: Cell::new(0),
        install_ms: RefCell::new(Vec::new()),
        shard_apply_ms: RefCell::new(Vec::new()),
    };
    let mut private_rng = inputs.stream(0x300);
    let mut private_client = engines.private.client(seed ^ 0x9e1);
    let mut private_traced_client = engines
        .private_traced
        .as_ref()
        .map(|e| e.client(seed ^ 0x9e2));
    {
        let warm = engines.plain.client();
        let mut rng = inputs.stream(0x3a);
        for _ in 0..1_000 {
            warm.query(inputs.popularity.sample(&mut rng));
        }
        for _ in 0..20 {
            private_client.query(inputs.popularity.sample(&mut rng));
        }
    }
    let fsyncs = || bench.regs.lineage.counter("durability.fsyncs", &[]).get();
    let (mut commits, mut commit_fsyncs) = (0u64, 0u64);
    let (mut traced_plain, mut pir_words, mut pir_bytes, mut pir_traced) = (0, 0, 0, 0);
    let mut batch_owners = 0u64;
    let rounds_started = Instant::now();
    let mut round = 0usize;
    while round < plan.min_rounds || plan.until.is_some_and(|d| rounds_started.elapsed() < d) {
        let marks = samples.marks(installer.install_ms.borrow().len());
        let traced = plan.trace && round % 2 == 1;
        let trace_plain =
            (traced && traced_plain < TRACED_PLAIN).then(|| TRACED_PLAIN - traced_plain);
        bench.plain_singles(
            &engines,
            &installer,
            round as u64,
            trace_plain,
            &mut samples,
        );
        traced_plain = samples.plain_traced_ns.len() as u64;
        batch_owners += bench.plain_batches(&engines, &installer, round as u64, &mut samples);
        let trace_private =
            (traced && pir_traced < TRACED_PRIVATE).then(|| TRACED_PRIVATE - pir_traced);
        let (words, bytes, queries) = match (&mut private_traced_client, &engines.private_traced) {
            (Some(client), Some(engine)) if trace_private.is_some() => bench.private_singles(
                client,
                engine,
                &kept[0],
                &mut private_rng,
                trace_private,
                &mut samples,
            ),
            _ => bench.private_singles(
                &mut private_client,
                &engines.private,
                &kept[0],
                &mut private_rng,
                None,
                &mut samples,
            ),
        };
        if trace_private.is_some() {
            (pir_words, pir_bytes, pir_traced) =
                (pir_words + words, pir_bytes + bytes, pir_traced + queries);
        }
        bench.private_batches(
            &mut private_client,
            &engines.private,
            &kept[0],
            &mut private_rng,
            &mut samples,
        );
        let mut gate = Gate::new(plan.slices[4]);
        let before = fsyncs();
        while gate.take() {
            bench.commit(&mut lineage, &mut samples, true);
            commits += 1;
        }
        commit_fsyncs += fsyncs() - before;
        if round.is_multiple_of(BUILD_EVERY) {
            let started = Instant::now();
            let epoch = bench.build();
            samples.build_s.push(started.elapsed().as_secs_f64());
            tally.check(epoch.index() == epoch0.index(), || {
                "epoch 0 rebuilt differently".into()
            });
        }
        bench.recover(&crashed, &acked, &mut samples);
        samples.close_round(marks, &installer.install_ms.borrow());
        round += 1;
    }
    let version_retries = engines.private.stats().pir_version_retries()
        + engines
            .private_traced
            .as_ref()
            .map_or(0, |e| e.stats().pir_version_retries());
    let index_bytes = engines.resident_bytes();
    let batch_dupes = engines.plain.stats().batch_dupes();
    engines.shutdown();

    // The live head: exact common count, full recall, and delta == full.
    let head = &lineage.head;
    tally.check(
        head.common_count() == cleartext_commons(&lineage.matrix, head.thresholds()),
        || "head common count differs from the cleartext count".into(),
    );
    tally.check(full_recall(&lineage.matrix, head.index().matrix()), || {
        "head drops a true membership".into()
    });
    let scratch = construct_epoch_with_registry(
        &lineage.matrix,
        &inputs.epsilons,
        &bench.protocol,
        &Registry::new(),
    )
    .expect("from-scratch construction");
    let same = scratch.index() == head.index()
        && scratch.decisions() == head.decisions()
        && scratch.common_count() == head.common_count();
    tally.check(same, || {
        "delta chain head differs from a from-scratch construction".into()
    });

    // Per-round figures are summarised by their median over the run's
    // rounds: the host both steals time and runs fast in spells of
    // seconds, and the median ignores either until it covers half the
    // run (over ten seeds it spread less than the better quartile on
    // every figure but one).
    let e2e = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    let mut outcome = Outcome {
        end_to_end: vec![
            e2e("setup_s", median(&samples.setup_s), "s"),
            e2e("peak_rss_mb", peak_rss_mb(), "MB"),
            e2e("locate_qps", median(&samples.plain_qps), "1/s"),
            e2e("locate_p50_us", median(&samples.round_plain_us), "us"),
            e2e("batch_locate_qps", median(&samples.batch_qps), "owners/s"),
            e2e("install_ms", median(&samples.round_install_ms), "ms"),
            e2e("private_p50_ms", median(&samples.round_private_ms), "ms"),
            e2e(
                "private_batch_qps",
                median(&samples.private_batch_qps),
                "owners/s",
            ),
            e2e("epoch_build_s", median(&samples.build_s), "s"),
            e2e("delta_commit_ms", median(&samples.round_commit_ms), "ms"),
            e2e("recover_ms", median(&samples.recover_ms), "ms"),
        ],
        ..Outcome::default()
    };

    if plan.trace {
        outcome.per_layer = per_layer(
            &bench,
            &lineage,
            &samples,
            &installer,
            PerLayerInputs {
                receipt_ms: receipt.wall.as_secs_f64() * 1e3,
                receipt_mb: receipt.bytes as f64 / 1e6,
                fsyncs_per_commit: commit_fsyncs as f64 / commits.max(1) as f64,
                batch_unique: 1.0 - batch_dupes as f64 / batch_owners.max(1) as f64,
                index_mb: index_bytes as f64 / 1e6,
                pir_words_per_query: pir_words as f64 / pir_traced.max(1) as f64,
                pir_bytes_per_query: pir_bytes as f64 / pir_traced.max(1) as f64,
                version_retries: version_retries as f64,
            },
        );
        let mut spans = SpanTable::default();
        spans.add_log(&tracer.collect());
        spans.add_log(&boot_tracer.collect());
        tally.check(spans.dropped == 0, || {
            format!("{} trace events dropped", spans.dropped)
        });
        outcome.per_layer.extend(span_metrics(&spans));
        outcome.spans = spans;
    }

    drop(lineage);
    let _ = std::fs::remove_dir_all(store_root);
    outcome.attempted = tally.attempted.get();
    outcome.failed = tally.failed.get();
    outcome.failures = tally.failures.take();
    outcome
}

/// Figures of a traced run that are not read from spans.
struct PerLayerInputs {
    receipt_ms: f64,
    receipt_mb: f64,
    fsyncs_per_commit: f64,
    batch_unique: f64,
    index_mb: f64,
    pir_words_per_query: f64,
    pir_bytes_per_query: f64,
    version_retries: f64,
}

/// Per-layer figures from telemetry, cost reports and the benchmark's
/// own samples. The unaudited lineage still prices the audit layer: one
/// column proof over the head, and the commitment check a recovery of
/// an audited store would run.
fn per_layer(
    bench: &Bench<'_>,
    lineage: &Lineage,
    samples: &Samples,
    installer: &Installer<'_>,
    fixed: PerLayerInputs,
) -> Vec<Metric> {
    let regs = &bench.regs;
    let head = &lineage.head;
    let provider = ProviderId(0);
    let stmt = ColumnStatement {
        epoch_seed: bench.protocol.seed,
        provider,
        betas: head.index().betas(),
        published: head.index().matrix().row_words(provider),
    };
    let commitment =
        ColumnCommitment::compute(stmt.epoch_seed, provider, stmt.betas, stmt.published);
    let proof = prove_column_traced(
        &stmt,
        lineage.matrix.row_words(provider),
        &bench.audit.params,
        bench.audit.prover_seed,
        &regs.probe,
        &bench.tracer,
        SpanCtx::NONE,
    );
    let verified = verify_column_traced(
        &stmt,
        &commitment,
        &proof,
        &bench.audit.params,
        &regs.probe,
        &bench.tracer,
        SpanCtx::NONE,
    );
    bench
        .tally
        .check(verified.is_ok(), || "audit probe proof rejected".into());
    let commitments: Vec<ColumnCommitment> = head
        .index()
        .matrix()
        .provider_ids()
        .map(|p| {
            let words = head.index().matrix().row_words(p);
            ColumnCommitment::compute(bench.protocol.seed, p, head.index().betas(), words)
        })
        .collect();
    let checked = {
        let _span = bench.tracer.root("bench.audit_check_probe");
        verify_commitments(head, &commitments)
    };
    bench
        .tally
        .check(checked.is_ok(), || "commitment probe rejected".into());
    // Deterministic protocol counts: one more epoch-0 construction
    // through the entry point that returns its cost report.
    let report = construct_distributed_with_registry(
        &bench.inputs.matrix,
        &bench.inputs.epsilons,
        &bench.protocol,
        &Registry::new(),
    )
    .expect("epoch construction")
    .report;
    // GMW rounds: input sharing, one per AND layer, output opening.
    let rounds = |stage: &StageReport| stage.circuit.and_depth as u64 + 2;
    let proofs = regs.probe.counter("audit.proofs", &[]).get();
    let proof_bytes = regs.probe.counter("audit.proof_bytes", &[]).get();
    let phase_ms = |phase: &str| {
        let h = regs
            .build
            .histogram("construct.phase_ns", &[("phase", phase)]);
        h.sum() as f64 / h.count().max(1) as f64 / 1e6
    };
    let wal_records = regs.lineage.counter("durability.wal_records", &[]).get();
    let wal_bytes = regs
        .lineage
        .counter("durability.wal_append_bytes", &[])
        .get();
    let layer = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        layer("serve.index_mb", fixed.index_mb, "MB"),
        layer(
            "serve.enqueue_wait_us",
            hist_mean_ns(&[&regs.plain], "serve.enqueue_wait_ns") / 1e3,
            "us",
        ),
        layer(
            "serve.service_us",
            hist_mean_ns(&[&regs.plain], "serve.service_ns") / 1e3,
            "us",
        ),
        layer("serve.batch_unique_ratio", fixed.batch_unique, "ratio"),
        layer(
            "serve.delta_apply_ms",
            mean(&installer.shard_apply_ms.borrow()),
            "ms",
        ),
        layer(
            "serve.install_lag_us",
            hist_mean_ns(&[&regs.plain], "serve.install_lag_ns") / 1e3,
            "us",
        ),
        layer(
            "serve.locate_p99_us",
            quantile(&samples.plain_ns, 0.99) / 1e3,
            "us",
        ),
        layer(
            "pir.answer_bytes_per_query",
            fixed.pir_bytes_per_query,
            "bytes",
        ),
        layer("pir.words_per_query", fixed.pir_words_per_query, "words"),
        layer("pir.version_retries", fixed.version_retries, "count"),
        layer(
            "pir.private_p99_ms",
            quantile(&samples.private_ns, 0.99) / 1e6,
            "ms",
        ),
        layer("protocol.secsum_ms", phase_ms("secsum"), "ms"),
        layer("protocol.countbelow_ms", phase_ms("count"), "ms"),
        layer("protocol.mix_ms", phase_ms("mix"), "ms"),
        layer("protocol.publish_ms", phase_ms("publish"), "ms"),
        layer(
            "protocol.delta_ms",
            hist_mean_ns(&[&regs.lineage], "construct.wall_ns") / 1e6,
            "ms",
        ),
        layer(
            "mpc.and_gates_per_epoch",
            and_gates(&report) as f64,
            "count",
        ),
        layer(
            "net.messages_per_epoch",
            (report.secsum.messages + report.count_stage.messages + report.mix_stage.messages)
                as f64,
            "count",
        ),
        layer(
            "net.bytes_per_epoch",
            (report.secsum.bytes + report.count_stage.bytes + report.mix_stage.bytes) as f64,
            "bytes",
        ),
        layer(
            "net.rounds_per_epoch",
            (report.secsum.rounds as u64 + rounds(&report.count_stage) + rounds(&report.mix_stage))
                as f64,
            "count",
        ),
        layer(
            "mpc.and_gates_per_delta",
            mean(&samples.gates_per_delta),
            "count",
        ),
        layer(
            "audit.prove_ms",
            hist_mean_ns(&[&regs.probe], "audit.prove_ns") / 1e6,
            "ms",
        ),
        layer(
            "audit.verify_ms",
            hist_mean_ns(&[&regs.probe], "audit.verify_ns") / 1e6,
            "ms",
        ),
        layer(
            "audit.proof_kb",
            proof_bytes as f64 / proofs.max(1) as f64 / 1e3,
            "KB",
        ),
        layer(
            "durability.fsync_us",
            regs.lineage
                .histogram("durability.fsync_ns", &[])
                .value_at_quantile(0.5)
                .unwrap_or(0) as f64
                / 1e3,
            "us",
        ),
        layer(
            "durability.fsyncs_per_commit",
            fixed.fsyncs_per_commit,
            "count",
        ),
        layer(
            "durability.wal_bytes_per_commit",
            wal_bytes as f64 / wal_records.max(1) as f64,
            "bytes",
        ),
        layer("durability.checkpoint_ms", fixed.receipt_ms, "ms"),
        layer("durability.checkpoint_mb", fixed.receipt_mb, "MB"),
        layer(
            "trace.overhead_pct",
            (median(&samples.plain_traced_ns) / median(&samples.plain_ns) - 1.0) * 100.0,
            "%",
        ),
    ]
}

/// Per-layer figures read from the span table.
fn span_metrics(spans: &SpanTable) -> Vec<Metric> {
    let private_queries = spans.get("private.query").count.max(1) as f64;
    let per_query_ms = |name: &str| spans.get(name).total_ns as f64 / private_queries / 1e6;
    let layer = |name: &'static str, value: f64, unit: &'static str| Metric { name, value, unit };
    vec![
        layer(
            "workload.generate_s",
            spans.get("bench.generate").mean_ms() / 1e3,
            "s",
        ),
        layer(
            "serve.start_s",
            spans.get("bench.serve_start").mean_ms() / 1e3,
            "s",
        ),
        layer("serve.boot_ms", spans.get("bench.boot").mean_ms(), "ms"),
        layer(
            "pir.generate_us",
            spans.get("pir.generate").mean_ms() * 1e3,
            "us",
        ),
        layer("pir.scan_ms", per_query_ms("pir.scan"), "ms"),
        layer("pir.gather_wait_ms", per_query_ms("pir.gather"), "ms"),
        layer(
            "pir.recombine_us",
            spans.get("pir.recombine").mean_ms() * 1e3,
            "us",
        ),
        layer(
            "durability.checkpoint_load_ms",
            spans.get("recover.checkpoint_load").mean_ms(),
            "ms",
        ),
        layer(
            "durability.replay_ms_per_record",
            spans.get("recover.replay_record").mean_ms(),
            "ms",
        ),
        layer(
            "durability.audit_check_ms",
            spans.get("bench.audit_check_probe").mean_ms(),
            "ms",
        ),
        layer("trace.dropped_events", spans.dropped as f64, "count"),
    ]
}
