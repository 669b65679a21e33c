//! Machine-readable benchmark pipeline: the canonical `BENCH_*.json`
//! schema plus the regression comparator behind `--compare`.
//!
//! The `suite` binary runs a quick battery of experiments and emits one
//! versioned JSON document. Because the whole evaluation runs inside the
//! deterministic simulator, a document is a pure function of the
//! workload parameters and seeds: re-running the suite at the same
//! settings reproduces every metric bit for bit, so the comparator's
//! interesting output is *code* regressions, not measurement noise.
//!
//! Document shape (schema version [`SCHEMA_VERSION`]):
//!
//! ```json
//! {
//!   "schema_version": 1,
//!   "git_rev": "abc123",
//!   "config": { "quick": "true", ... },
//!   "results": [
//!     { "bench": "fig2_latency", "workload": "0/0",
//!       "metrics": { "mean_us": 512.0, "p50_us": 500.0, ... } }
//!   ],
//!   "counters": { "sent.request": 1234, ... }
//! }
//! ```
//!
//! `results` is ordered (benches run in a fixed order) and every
//! `metrics`/`counters` map serializes in key order, so two documents
//! from identical runs are byte-identical apart from `git_rev`.

use std::collections::BTreeMap;

/// Version stamp of the document layout. Bump when a field is added,
/// removed, or changes meaning; [`compare`] refuses to diff documents
/// from different schema versions.
pub const SCHEMA_VERSION: u32 = 1;

/// One benchmark measurement: a named experiment family, the workload
/// point within it, and a flat map of metric name to value.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchResult {
    /// Experiment family (e.g. `fig2_latency`, `saturation`).
    pub bench: String,
    /// Workload point within the family (e.g. `0/0`, `20-clients`).
    pub workload: String,
    /// Metric name → value. Latencies are microseconds, rates are
    /// per-second, times are seconds; the name carries the unit suffix.
    pub metrics: BTreeMap<String, f64>,
}

/// The whole benchmark document — what `suite --out` writes.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BenchDoc {
    /// Layout version ([`SCHEMA_VERSION`] at write time).
    pub schema_version: u32,
    /// `git rev-parse --short HEAD` of the producing tree (or
    /// `unknown` outside a git checkout). Informational only — the
    /// comparator never looks at it.
    pub git_rev: String,
    /// Run parameters (sample counts, seeds, quick mode) as strings.
    pub config: BTreeMap<String, String>,
    /// Measurements, in the suite's fixed execution order.
    pub results: Vec<BenchResult>,
    /// Cluster-wide health counters aggregated over the suite's own
    /// clusters (message sends/receives by tag, protocol events) — the
    /// observability cross-check that the runs exercised the paths
    /// their metrics claim to measure. [`compare`] fails when a baseline
    /// key disappears and reports changed totals without gating them.
    pub counters: BTreeMap<String, u64>,
}

impl BenchDoc {
    /// An empty document stamped with the current schema version.
    pub fn new(git_rev: String, config: BTreeMap<String, String>) -> BenchDoc {
        BenchDoc {
            schema_version: SCHEMA_VERSION,
            git_rev,
            config,
            results: Vec::new(),
            counters: BTreeMap::new(),
        }
    }

    /// Looks up a result by family and workload.
    pub fn result(&self, bench: &str, workload: &str) -> Option<&BenchResult> {
        self.results
            .iter()
            .find(|r| r.bench == bench && r.workload == workload)
    }
}

/// Whether a larger value of `metric` is an improvement. Throughput-like
/// metrics (rates) and retained-goodput fractions improve upward;
/// everything else — latencies, heal times, fallback counts — improves
/// downward.
pub fn higher_is_better(metric: &str) -> bool {
    metric.contains("throughput") || metric.contains("per_sec") || metric.contains("retained_pct")
}

/// One metric diffed between two documents.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareRow {
    /// Experiment family.
    pub bench: String,
    /// Workload point.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline value.
    pub old: f64,
    /// New value.
    pub new: f64,
    /// Signed relative change in percent (positive = value went up).
    pub delta_pct: f64,
    /// The change is in the bad direction and exceeds the threshold.
    pub regression: bool,
    /// The change is in the good direction and exceeds the threshold.
    pub improvement: bool,
}

/// The outcome of diffing a new document against a baseline.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Threshold (percent) past which a bad-direction delta flags.
    pub threshold_pct: f64,
    /// Every metric present in both documents.
    pub rows: Vec<CompareRow>,
    /// `bench/workload/metric` and `counters/name` keys present in the
    /// baseline but absent from the new document. A vanished measurement
    /// or counter fails the gate — losing coverage (or renaming a
    /// counter) must be deliberate (regenerate the baseline).
    pub missing: Vec<String>,
    /// Keys present only in the new document (informational).
    pub added: Vec<String>,
    /// Counters present in both documents whose totals differ, as
    /// `(name, old, new)`. Informational: counters have no direction.
    pub counter_changes: Vec<(String, u64, u64)>,
}

impl CompareReport {
    /// Number of threshold-exceeding regressions.
    pub fn regressions(&self) -> usize {
        self.rows.iter().filter(|r| r.regression).count()
    }

    /// True when the gate passes: no regressions and no vanished
    /// measurements.
    pub fn ok(&self) -> bool {
        self.regressions() == 0 && self.missing.is_empty()
    }

    /// Renders the regression table (all rows, flagged ones marked).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<18} {:<22} {:<28} {:>12} {:>12} {:>8}  {}\n",
            "bench", "workload", "metric", "old", "new", "delta", "flag"
        ));
        out.push_str(&format!("{}\n", "-".repeat(112)));
        for r in &self.rows {
            let flag = if r.regression {
                "REGRESSION"
            } else if r.improvement {
                "improved"
            } else {
                ""
            };
            out.push_str(&format!(
                "{:<18} {:<22} {:<28} {:>12.2} {:>12.2} {:>+7.1}%  {}\n",
                r.bench, r.workload, r.metric, r.old, r.new, r.delta_pct, flag
            ));
        }
        for m in &self.missing {
            out.push_str(&format!("MISSING from new document: {m}\n"));
        }
        for a in &self.added {
            out.push_str(&format!("added (not in baseline): {a}\n"));
        }
        for (name, old, new) in &self.counter_changes {
            out.push_str(&format!("counter changed: {name} {old} -> {new}\n"));
        }
        out.push_str(&format!(
            "{} metrics compared, {} regression(s) past {:.0}% threshold\n",
            self.rows.len(),
            self.regressions(),
            self.threshold_pct
        ));
        out
    }
}

/// Diffs `new` against the `old` baseline: every metric present in both
/// gets a row; bad-direction deltas past `threshold_pct` are flagged as
/// regressions (direction per [`higher_is_better`]). Counters are
/// checked for presence only: a baseline counter missing from `new` is
/// `missing`, a changed total is listed in `counter_changes`.
///
/// # Errors
///
/// Returns an error if the documents carry different schema versions —
/// a cross-version diff would silently compare renamed metrics.
pub fn compare(
    old: &BenchDoc,
    new: &BenchDoc,
    threshold_pct: f64,
) -> Result<CompareReport, String> {
    if old.schema_version != new.schema_version {
        return Err(format!(
            "schema version mismatch: baseline v{} vs new v{} — regenerate the baseline",
            old.schema_version, new.schema_version
        ));
    }
    let mut rows = Vec::new();
    let mut missing = Vec::new();
    for or in &old.results {
        let Some(nr) = new.result(&or.bench, &or.workload) else {
            missing.push(format!("{}/{} (entire workload)", or.bench, or.workload));
            continue;
        };
        for (metric, &ov) in &or.metrics {
            let Some(&nv) = nr.metrics.get(metric) else {
                missing.push(format!("{}/{}/{metric}", or.bench, or.workload));
                continue;
            };
            let delta_pct = if ov == 0.0 {
                if nv == 0.0 {
                    0.0
                } else {
                    // From-zero change: report it as a full-scale move so
                    // it cannot hide below any threshold.
                    100.0 * nv.signum()
                }
            } else {
                (nv - ov) / ov.abs() * 100.0
            };
            let worse = if higher_is_better(metric) {
                delta_pct < 0.0
            } else {
                delta_pct > 0.0
            };
            let past = delta_pct.abs() > threshold_pct;
            rows.push(CompareRow {
                bench: or.bench.clone(),
                workload: or.workload.clone(),
                metric: metric.clone(),
                old: ov,
                new: nv,
                delta_pct,
                regression: worse && past,
                improvement: !worse && past && delta_pct != 0.0,
            });
        }
    }
    let mut added = Vec::new();
    for nr in &new.results {
        match old.result(&nr.bench, &nr.workload) {
            None => added.push(format!("{}/{} (entire workload)", nr.bench, nr.workload)),
            Some(or) => {
                for metric in nr.metrics.keys() {
                    if !or.metrics.contains_key(metric) {
                        added.push(format!("{}/{}/{metric}", nr.bench, nr.workload));
                    }
                }
            }
        }
    }
    let mut counter_changes = Vec::new();
    for (name, &ov) in &old.counters {
        match new.counters.get(name) {
            None => missing.push(format!("counters/{name}")),
            Some(&nv) if nv != ov => counter_changes.push((name.clone(), ov, nv)),
            Some(_) => {}
        }
    }
    for name in new.counters.keys() {
        if !old.counters.contains_key(name) {
            added.push(format!("counters/{name}"));
        }
    }
    Ok(CompareReport {
        threshold_pct,
        rows,
        missing,
        added,
        counter_changes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn doc() -> BenchDoc {
        let mut d = BenchDoc::new(
            "testrev".to_string(),
            BTreeMap::from([("quick".to_string(), "true".to_string())]),
        );
        d.results.push(BenchResult {
            bench: "fig2_latency".to_string(),
            workload: "0/0".to_string(),
            metrics: BTreeMap::from([
                ("mean_us".to_string(), 500.0),
                ("p99_us".to_string(), 750.0),
            ]),
        });
        d.results.push(BenchResult {
            bench: "saturation".to_string(),
            workload: "20-clients".to_string(),
            metrics: BTreeMap::from([("throughput_ops_per_sec".to_string(), 9000.0)]),
        });
        d.counters.insert("sent.request".to_string(), 42);
        d
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let d = doc();
        let json = serde_json::to_string(&d).expect("serializes");
        let back: BenchDoc = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, d);
        // Maps serialize in key order, so identical documents are
        // byte-identical — the property the CI gate relies on.
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn identical_documents_compare_clean() {
        let d = doc();
        let rep = compare(&d, &d, 10.0).expect("same schema");
        assert!(rep.ok());
        assert_eq!(rep.regressions(), 0);
        assert_eq!(rep.rows.len(), 3);
        assert!(rep.rows.iter().all(|r| r.delta_pct == 0.0));
    }

    #[test]
    fn injected_latency_regression_is_flagged() {
        let old = doc();
        let mut new = doc();
        *new.results[0].metrics.get_mut("mean_us").unwrap() = 700.0; // +40%
        let rep = compare(&old, &new, 25.0).expect("same schema");
        assert!(!rep.ok());
        assert_eq!(rep.regressions(), 1);
        let row = rep.rows.iter().find(|r| r.regression).unwrap();
        assert_eq!(row.metric, "mean_us");
        assert!(rep.render().contains("REGRESSION"));
    }

    #[test]
    fn direction_awareness() {
        let old = doc();
        // Throughput going *up* 40% is an improvement, not a regression.
        let mut faster = doc();
        *faster.results[1]
            .metrics
            .get_mut("throughput_ops_per_sec")
            .unwrap() = 12_600.0;
        let rep = compare(&old, &faster, 25.0).unwrap();
        assert!(rep.ok());
        assert_eq!(rep.rows.iter().filter(|r| r.improvement).count(), 1);
        // Throughput going *down* 40% is a regression.
        let mut slower = doc();
        *slower.results[1]
            .metrics
            .get_mut("throughput_ops_per_sec")
            .unwrap() = 5_400.0;
        let rep = compare(&old, &slower, 25.0).unwrap();
        assert_eq!(rep.regressions(), 1);
    }

    #[test]
    fn below_threshold_deltas_pass() {
        let old = doc();
        let mut new = doc();
        *new.results[0].metrics.get_mut("mean_us").unwrap() = 550.0; // +10%
        let rep = compare(&old, &new, 25.0).unwrap();
        assert!(rep.ok());
        assert!(rep.rows.iter().all(|r| !r.regression && !r.improvement));
    }

    #[test]
    fn vanished_measurements_fail_the_gate() {
        let old = doc();
        let mut new = doc();
        new.results[0].metrics.remove("p99_us");
        new.results.remove(1);
        let rep = compare(&old, &new, 25.0).unwrap();
        assert!(!rep.ok());
        assert_eq!(rep.missing.len(), 2);
    }

    #[test]
    fn vanished_counter_fails_the_gate() {
        let old = doc();
        let mut new = doc();
        new.counters.remove("sent.request");
        new.counters.insert("sent.requests".to_string(), 42);
        let rep = compare(&old, &new, 25.0).unwrap();
        assert!(!rep.ok());
        assert_eq!(rep.missing, vec!["counters/sent.request".to_string()]);
        assert_eq!(rep.added, vec!["counters/sent.requests".to_string()]);
        assert!(rep
            .render()
            .contains("MISSING from new document: counters/sent.request"));
    }

    #[test]
    fn changed_counter_is_reported_but_passes() {
        let old = doc();
        let mut new = doc();
        new.counters.insert("sent.request".to_string(), 50);
        let rep = compare(&old, &new, 25.0).unwrap();
        assert!(rep.ok());
        assert_eq!(
            rep.counter_changes,
            vec![("sent.request".to_string(), 42, 50)]
        );
        assert!(rep
            .render()
            .contains("counter changed: sent.request 42 -> 50"));
        // An unchanged counter is neither missing nor changed.
        let same = compare(&old, &old, 25.0).unwrap();
        assert!(same.counter_changes.is_empty() && same.missing.is_empty());
    }

    #[test]
    fn schema_version_mismatch_is_an_error() {
        let old = doc();
        let mut new = doc();
        new.schema_version = SCHEMA_VERSION + 1;
        assert!(compare(&old, &new, 10.0).is_err());
    }

    #[test]
    fn retained_goodput_improves_upward() {
        assert!(higher_is_better("goodput_retained_pct"));
        assert!(higher_is_better("honest_goodput_ops_per_sec"));
        assert!(!higher_is_better("honest_p99_us"));
        assert!(!higher_is_better("requests_shed"));
    }

    #[test]
    fn zero_baseline_changes_cannot_hide() {
        let mut old = doc();
        old.results[0].metrics.insert("fallbacks".to_string(), 0.0);
        let mut new = old.clone();
        new.results[0].metrics.insert("fallbacks".to_string(), 3.0);
        let rep = compare(&old, &new, 50.0).unwrap();
        assert_eq!(rep.regressions(), 1);
    }
}
