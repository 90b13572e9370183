//! What every workload shares: seeded workload configurations, the
//! report a run prints, and the output checks' building blocks.

use std::fmt::Write as _;
use std::path::PathBuf;
use std::time::Duration;

use smartflux::eval::WorkloadFactory;
use smartflux::{
    EngineConfig, ErrorBound, MetricContext, MetricKind, SmartFluxSession, WaveDiagnostics,
};
use smartflux_bench::Workload;
use smartflux_datastore::{ContainerRef, DataStore};
use smartflux_wms::{Scheduler, StepId, SynchronousPolicy, Workflow};
use smartflux_workloads::aqhi::{AqhiConfig, AqhiFactory};
use smartflux_workloads::lrb::{LrbConfig, LrbFactory};

use crate::stats;

/// The error bound every workload runs under: the paper's tightest, 5%.
pub const MAX_EPSILON: f64 = 0.05;

/// The workflow family a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Family {
    /// Linear Road tolling.
    Lrb,
    /// Air-quality index.
    Aqhi,
}

impl Family {
    fn workload(self) -> Workload {
        match self {
            Family::Lrb => Workload::Lrb,
            Family::Aqhi => Workload::Aqhi,
        }
    }

    /// The workload factory with its feed seeded by `seed`.
    #[must_use]
    pub fn factory(self, seed: u64) -> Box<dyn WorkloadFactory + Send + Sync> {
        match self {
            Family::Lrb => Box::new(LrbFactory {
                config: LrbConfig {
                    seed,
                    ..LrbConfig::with_bound(MAX_EPSILON)
                },
            }),
            Family::Aqhi => Box::new(AqhiFactory {
                config: AqhiConfig {
                    seed,
                    ..AqhiConfig::with_bound(MAX_EPSILON)
                },
            }),
        }
    }

    /// The paper-standard engine configuration (`smartflux_bench`'s) with
    /// the paper's training length (500 LRB / 384 AQHI waves) and the
    /// engine seeded by `seed`.
    #[must_use]
    pub fn engine_config(self, seed: u64) -> EngineConfig {
        let wl = self.workload();
        wl.engine_config(MAX_EPSILON)
            .with_training_waves(wl.training_waves())
            .with_seed(seed)
    }

    /// Training waves per training phase.
    #[must_use]
    pub fn training_waves(self) -> usize {
        self.workload().training_waves()
    }
}

/// The QoD-managed steps of a workflow: bounded and not always-run.
#[must_use]
pub fn managed_steps(workflow: &Workflow) -> Vec<StepId> {
    workflow
        .qod_steps()
        .into_iter()
        .filter(|&id| !workflow.info(id).always_run())
        .collect()
}

/// FNV-1a over a decision trail: wave, phase, impacts (bit-exact) and
/// decisions of every row.
#[must_use]
pub fn trail_checksum<'a>(rows: impl IntoIterator<Item = &'a WaveDiagnostics>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for b in bytes {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for d in rows {
        eat(&d.wave.to_le_bytes());
        eat(&[u8::from(d.training)]);
        for i in &d.impacts {
            eat(&i.to_bits().to_le_bytes());
        }
        for x in &d.decisions {
            eat(&[u8::from(*x)]);
        }
    }
    h
}

/// A synchronous twin of an adaptive session, forked from the session's
/// store at a point where both agree (the end of a training phase, when
/// every step has just run). It runs every step of every wave and measures
/// how far the adaptive run's output has drifted, as
/// `smartflux::eval::evaluate` does.
pub struct SyncTwin {
    scheduler: Scheduler,
    outputs: Vec<ContainerRef>,
    bound: ErrorBound,
    metric: MetricKind,
}

impl SyncTwin {
    /// Forks the twin from `session`'s current store and wave.
    ///
    /// # Panics
    ///
    /// Panics if the store image cannot be rebuilt or the factory's output
    /// step carries no valid bound (both bugs, not input conditions).
    #[must_use]
    pub fn fork(factory: &dyn WorkloadFactory, session: &SmartFluxSession) -> Self {
        let store = DataStore::from_state(session.scheduler().store().export_state())
            .expect("a store image rebuilds");
        let workflow = factory.build(&store);
        let out = workflow
            .graph()
            .step_id(factory.output_step())
            .expect("factory names its output step");
        let outputs = workflow.info(out).outputs().to_vec();
        let bound = ErrorBound::new(
            workflow
                .info(out)
                .error_bound()
                .expect("output step is bounded"),
        )
        .expect("output bound is valid");
        let mut scheduler = Scheduler::new(workflow, store, Box::new(SynchronousPolicy));
        scheduler.resume(session.scheduler().next_wave());
        Self {
            scheduler,
            outputs,
            bound,
            metric: MetricKind::MeanRelative,
        }
    }

    /// Runs the twin's next wave, returning its duration.
    ///
    /// # Panics
    ///
    /// Panics if the synchronous workflow fails, which the workloads never
    /// do.
    pub fn run_wave(&mut self) -> Duration {
        let t = std::time::Instant::now();
        self.scheduler.run_wave().expect("synchronous twin wave");
        t.elapsed()
    }

    /// The adaptive store's output error against the twin's.
    #[must_use]
    pub fn divergence(&self, adaptive: &DataStore) -> f64 {
        let mut worst: f64 = 0.0;
        for c in &self.outputs {
            let truth = self.scheduler.store().snapshot(c).unwrap_or_default();
            let stale = adaptive.snapshot(c).unwrap_or_default();
            let diff = truth.diff(&stale);
            let ctx = MetricContext::new(
                truth.len().max(stale.len()),
                stale.iter().filter_map(|(_, v)| v.as_f64()).sum(),
            );
            worst = worst.max(self.metric.evaluate(&diff, &ctx));
        }
        worst
    }

    /// Whether an output error stays within the output step's `maxε`.
    #[must_use]
    pub fn compliant(&self, error: f64) -> bool {
        !self.bound.is_violated_by(error)
    }
}

/// Peak resident memory of this process, in MB (`VmHWM`).
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Scratch space for durability directories and trace files: `out/` in
/// the benchmark's own directory.
#[must_use]
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// A directory private to this process and `tag`, emptied first.
///
/// # Panics
///
/// Panics if the directory cannot be created.
#[must_use]
pub fn scratch_dir(tag: &str) -> PathBuf {
    let dir = out_dir().join(format!("{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("cannot create the benchmark's scratch directory");
    dir
}

/// One reported figure.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Value as measured.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
    /// Context printed next to it (sample count, percentile used).
    pub note: String,
}

/// Per-layer metrics that are deterministic counts for a given seed: two
/// traced runs with the same seed must reproduce them exactly.
pub const DETERMINISTIC: [&str; 11] = [
    "store.get_per_wave",
    "store.scan_per_wave",
    "store.snapshot_per_wave",
    "store.put_per_wave",
    "wal.bytes_per_wave",
    "checkpoint.bytes",
    "telemetry.spans_per_wave",
    "net.request_bytes",
    "wms.executed_per_wave",
    "wms.skipped_per_wave",
    "wms.deferred_per_wave",
];

/// The samples behind one untraced run's end-to-end metrics.
#[derive(Debug)]
pub struct EndToEnd<'a> {
    /// Timed waves that completed.
    pub completed: usize,
    /// Wall time of the timed window, s.
    pub window_secs: f64,
    /// How the window offered load, for the `waves_per_s` line.
    pub load: &'static str,
    /// Application-wave latencies in time order, µs.
    pub app_us: &'a [f64],
    /// Training-wave latencies, setups included, µs.
    pub train_us: &'a [f64],
    /// Durations of the waves that ended a training phase, s.
    pub builds_s: &'a [f64],
    /// Set-up durations, s.
    pub setups_s: &'a [f64],
    /// Peak resident memory, MB.
    pub peak_rss_mb: f64,
    /// Managed steps executed, and executed or skipped, in timed
    /// application waves.
    pub managed: (u64, u64),
    /// Application waves within `maxε` of the synchronous twin, and
    /// waves compared.
    pub within_bound: (u64, u64),
}

/// An output check and its verdict.
#[derive(Debug, Clone)]
pub struct Check {
    /// What was checked.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// Evidence.
    pub detail: String,
}

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
    pub metrics: Vec<Metric>,
    /// Timed waves attempted.
    pub attempted: u64,
    /// Timed waves that errored, were refused or got no reply.
    pub failed: u64,
    /// Output checks.
    pub checks: Vec<Check>,
    /// Free-form lines printed before the metrics.
    pub notes: Vec<String>,
}

impl Report {
    /// Adds a metric.
    pub fn metric(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Adds a latency metric read with the tail rule: the `wanted`
    /// percentile of `samples`, or the highest one the sample count
    /// supports, as a median over blocks of consecutive samples
    /// ([`stats::block_tail`]).
    pub fn tail_metric(&mut self, name: &'static str, samples: &[f64], wanted: f64) {
        let (t, blocks) = stats::block_tail(samples, wanted);
        let mut shown = if t.percentile == wanted {
            format!("p{}, n={}", t.percentile, t.n)
        } else {
            format!(
                "p{} (too few samples for p{wanted}), n={}",
                t.percentile, t.n
            )
        };
        if blocks > 1 {
            shown.push_str(&format!(", median over {blocks} consecutive blocks"));
        }
        self.metric(name, t.value, "us", shown);
    }

    /// Adds every end-to-end metric, in `BENCHMARK.json`'s order.
    pub fn end_to_end(&mut self, e: &EndToEnd<'_>) {
        let ratio = |a: u64, b: u64, empty: f64| if b == 0 { empty } else { a as f64 / b as f64 };
        self.metric(
            "waves_per_s",
            e.completed as f64 / e.window_secs,
            "1/s",
            format!(
                "{} waves in {:.3} s, {}",
                e.completed, e.window_secs, e.load
            ),
        );
        self.metric(
            "wave_p50_us",
            stats::median(e.app_us),
            "us",
            format!("p50, n={}", e.app_us.len()),
        );
        self.tail_metric("wave_p99_us", e.app_us, 99.0);
        self.metric(
            "train_wave_p50_us",
            stats::median(e.train_us),
            "us",
            format!(
                "p50, n={} training waves, setups included",
                e.train_us.len()
            ),
        );
        self.metric(
            "model_build_s",
            stats::median(e.builds_s),
            "s",
            format!("median of {} training-phase-ending waves", e.builds_s.len()),
        );
        self.metric(
            "setup_s",
            stats::median(e.setups_s),
            "s",
            format!("median of {} setups", e.setups_s.len()),
        );
        self.metric(
            "peak_rss_mb",
            e.peak_rss_mb,
            "MB",
            "VmHWM after the first part of the window",
        );
        let (exec, sched) = e.managed;
        self.metric(
            "executions_ratio",
            ratio(exec, sched, 1.0),
            "ratio",
            format!("{exec} of {sched} managed steps executed in timed application waves"),
        );
        let (ok, compared) = e.within_bound;
        self.metric(
            "confidence",
            ratio(ok, compared, 0.0),
            "ratio",
            format!("{ok} of {compared} application waves within maxε of the synchronous twin"),
        );
    }

    /// Adds a check.
    pub fn check(&mut self, name: &'static str, ok: bool, detail: impl Into<String>) {
        self.checks.push(Check {
            name,
            ok,
            detail: detail.into(),
        });
    }

    /// Whether every check held.
    #[must_use]
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// The value of a metric, if reported.
    #[cfg(test)]
    #[must_use]
    pub fn value(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The human-readable lines: notes, checks, then every metric by
    /// name with its unit.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "  {n}");
        }
        for c in &self.checks {
            let verdict = if c.ok { "ok" } else { "FAILED" };
            let _ = writeln!(out, "  check {:<28} {verdict:<6} {}", c.name, c.detail);
        }
        let ratio = if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        };
        let _ = writeln!(
            out,
            "  failed_ratio = {ratio} ({} of {} timed waves failed, refused or unanswered)",
            self.failed, self.attempted
        );
        for m in &self.metrics {
            let tag = if DETERMINISTIC.contains(&m.name) {
                " [deterministic count]"
            } else {
                ""
            };
            let _ = writeln!(
                out,
                "  {:<26} = {} {}{}{}",
                m.name,
                m.value,
                m.unit,
                if m.note.is_empty() {
                    String::new()
                } else {
                    format!("  ({})", m.note)
                },
                tag
            );
        }
        out
    }

    /// The one-line JSON result.
    #[must_use]
    pub fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = if m.value.is_finite() { m.value } else { 0.0 };
                format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", m.name, m.unit)
            })
            .collect::<Vec<_>>()
            .join(",");
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.correct(),
            self.attempted.max(1),
            self.failed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_keeps_every_digit_and_the_required_keys() {
        let mut r = Report::default();
        r.metric("latency_ms", 1.203_456_789, "ms", "");
        r.attempted = 10;
        r.check("x", true, "");
        let j = r.json();
        assert_eq!(
            j,
            "{\"correct\":true,\"attempted\":10,\"failed\":0,\
             \"metrics\":{\"latency_ms\":{\"value\":1.203456789,\"unit\":\"ms\"}}}"
        );
        r.check("y", false, "");
        assert!(r.json().starts_with("{\"correct\":false"));
    }

    #[test]
    fn checksums_see_impact_bits() {
        let row = |impact: f64| WaveDiagnostics {
            wave: 1,
            impacts: vec![impact],
            errors: vec![],
            decisions: vec![true],
            training: false,
        };
        let a = trail_checksum(&[row(0.1)]);
        assert_eq!(a, trail_checksum(&[row(0.1)]));
        assert_ne!(a, trail_checksum(&[row(0.1 + f64::EPSILON)]));
    }
}
