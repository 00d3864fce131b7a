//! Result records, order statistics, and readers for what the solver
//! already exposes (telemetry reports, `/proc` memory high-water marks).

use pmg_telemetry::Report;
use std::collections::BTreeMap;

/// One workload run's raw record. `run.py` turns it into the benchmark's
/// result line; every number here is measured, never derived from a
/// constant.
#[derive(Default)]
pub struct Record {
    /// Timing samples by name (seconds unless the name says otherwise).
    pub samples: BTreeMap<String, Vec<f64>>,
    /// Quantities that must repeat exactly across repeats and runs.
    pub exact: BTreeMap<String, f64>,
    /// Per-layer metrics (traced runs only).
    pub layers: BTreeMap<String, f64>,
    /// Free-form facts about the run (transport, pool size, seed use).
    pub facts: BTreeMap<String, String>,
    /// Operations checked.
    pub attempted: u64,
    /// Human-readable description of every failed check.
    pub failures: Vec<String>,
}

impl Record {
    pub fn push(&mut self, name: &str, v: f64) {
        self.samples.entry(name.to_string()).or_default().push(v);
    }

    pub fn fact(&mut self, name: &str, v: impl ToString) {
        self.facts.insert(name.to_string(), v.to_string());
    }

    /// Count one checked operation; record a failure unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failures.push(what());
        }
    }

    /// Record an exact count. A second repeat that disagrees with the
    /// first is a failure, not noise.
    pub fn exact(&mut self, name: &str, v: f64) {
        match self.exact.get(name) {
            Some(&prev) if prev.to_bits() != v.to_bits() => self.failures.push(format!(
                "exact count {name} changed between repeats: {prev} then {v}"
            )),
            _ => {
                self.exact.insert(name.to_string(), v);
            }
        }
    }

    /// Per-layer medians over the traced repeats.
    pub fn layers_from(&mut self, per_repeat: &[BTreeMap<String, f64>]) {
        let mut cols: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for m in per_repeat {
            for (k, &v) in m {
                cols.entry(k).or_default().push(v);
            }
        }
        for (k, v) in cols {
            self.layers.insert(k.to_string(), median(&v));
        }
    }

    pub fn to_json(&self) -> String {
        let mut o = String::from("{");
        let mut first = true;
        let mut key = |o: &mut String, k: &str| {
            if !first {
                o.push(',');
            }
            first = false;
            pmg_telemetry::json::write_str(o, k);
            o.push(':');
        };
        key(&mut o, "samples");
        write_map(&mut o, &self.samples, |o, v| {
            o.push('[');
            for (i, x) in v.iter().enumerate() {
                if i > 0 {
                    o.push(',');
                }
                pmg_telemetry::json::write_num(o, *x);
            }
            o.push(']');
        });
        key(&mut o, "exact");
        write_map(&mut o, &self.exact, |o, v| {
            pmg_telemetry::json::write_num(o, *v)
        });
        key(&mut o, "layers");
        write_map(&mut o, &self.layers, |o, v| {
            pmg_telemetry::json::write_num(o, *v)
        });
        key(&mut o, "facts");
        write_map(&mut o, &self.facts, |o, v| {
            pmg_telemetry::json::write_str(o, v)
        });
        key(&mut o, "attempted");
        o.push_str(&self.attempted.to_string());
        key(&mut o, "failures");
        o.push('[');
        for (i, f) in self.failures.iter().enumerate() {
            if i > 0 {
                o.push(',');
            }
            pmg_telemetry::json::write_str(&mut o, f);
        }
        o.push_str("]}");
        o
    }
}

fn write_map<V>(o: &mut String, m: &BTreeMap<String, V>, mut f: impl FnMut(&mut String, &V)) {
    o.push('{');
    for (i, (k, v)) in m.iter().enumerate() {
        if i > 0 {
            o.push(',');
        }
        pmg_telemetry::json::write_str(o, k);
        o.push(':');
        f(o, v);
    }
    o.push('}');
}

pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return f64::NAN;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    (s[(n - 1) / 2] + s[n / 2]) / 2.0
}

/// This process's peak resident set (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(f64::NAN)
}

/// Restart this process's memory high-water mark at its current resident
/// set (`echo 5 > /proc/self/clear_refs`); return that resident set, in MB.
pub fn reset_peak_rss() -> Result<f64, String> {
    std::fs::write("/proc/self/clear_refs", "5").map_err(|e| format!("clear_refs: {e}"))?;
    Ok(peak_rss_mb())
}

/// True relative residual `‖b − A x‖ / ‖b‖`, recomputed outside the
/// solver with a plain serial SpMV.
pub fn true_rel_residual(a: &pmg_sparse::CsrMatrix, b: &[f64], x: &[f64]) -> f64 {
    let mut ax = vec![0.0; b.len()];
    a.spmv(x, &mut ax);
    let r: f64 = b.iter().zip(&ax).map(|(b, y)| (b - y) * (b - y)).sum();
    let n: f64 = b.iter().map(|b| b * b).sum();
    (r / n).sqrt()
}

/// Root-level phases that are legitimately top-level: the solver's own
/// entry scopes and the finite element symbolic/assembly phases. Time in
/// any other root phase lost its parent (e.g. a scope opened on a pool
/// thread) and belongs under setup or solve.
const ROOT_PHASES: [&str; 6] = [
    "setup",
    "solve",
    "assemble",
    "sparsity",
    "scatter_map",
    "geom",
];

fn phase_s(r: &Report, path: &str) -> f64 {
    r.phase(path).map_or(0.0, |p| p.total_s)
}

/// Sum of every phase under `prefix` whose path ends in `suffix`.
fn phase_sum(r: &Report, prefix: &str, suffix: &str) -> f64 {
    sum_s(
        r.phases
            .iter()
            .filter(|p| p.path.starts_with(prefix) && p.path.ends_with(suffix)),
    )
}

/// Total time of some phases; `+0.0` when there are none.
fn sum_s<'a>(phases: impl Iterator<Item = &'a pmg_telemetry::PhaseRecord>) -> f64 {
    phases.fold(0.0, |acc, p| acc + p.total_s)
}

fn counter(r: &Report, name: &str) -> f64 {
    r.counters.get(name).copied().unwrap_or(0) as f64
}

/// Levels with their own smooth/restrict/prolong time columns. Every
/// workload's hierarchy has at least these; the coarsest level's direct
/// solve is `solve.coarse_s`.
const TIMED_LEVELS: usize = 3;

/// The per-layer metrics one traced repeat's telemetry report yields.
pub fn layers_of(r: &Report) -> BTreeMap<String, f64> {
    let mut m = BTreeMap::new();
    let mut put = |k: &str, v: f64| {
        m.insert(k.to_string(), v);
    };
    put("setup.classify_s", phase_sum(r, "setup", "/classify"));
    // Suffix sums: the sharded path coarsens level 0 while planning the
    // ingest, outside any `coarsen` scope.
    put("setup.coarsen.mis_s", phase_sum(r, "setup", "/mis"));
    put(
        "setup.coarsen.delaunay_s",
        phase_sum(r, "setup", "/delaunay"),
    );
    put(
        "setup.coarsen.restriction_s",
        phase_sum(r, "setup", "/restriction"),
    );
    put("setup.rap_s", phase_s(r, "setup/rap"));
    put("setup.smoother_s", phase_s(r, "setup/smoother"));
    put(
        "setup.smoother_builds",
        r.phase("setup/smoother").map_or(0.0, |p| p.count as f64),
    );
    put("setup.coarse_direct_s", phase_s(r, "setup/coarse_direct"));
    put("mis.rounds", counter(r, "mis/rounds"));
    put("rap.plan_build", counter(r, "rap/plan_build"));
    put("rap.plan_reuse", counter(r, "rap/plan_reuse"));
    put("fem.assemble_s", phase_s(r, "assemble"));
    put(
        "assembly.pattern_build",
        counter(r, "assembly/pattern_build"),
    );
    put(
        "assembly.pattern_reuse",
        counter(r, "assembly/pattern_reuse"),
    );
    for lvl in 0..TIMED_LEVELS {
        for part in ["smooth", "restrict", "prolong"] {
            put(
                &format!("solve.level{lvl}.{part}_s"),
                phase_sum(r, "solve", &format!("/level{lvl}/{part}")),
            );
        }
    }
    put("solve.coarse_s", phase_sum(r, "solve", "/coarse"));
    let pcg = phase_s(r, "solve/pcg");
    put("solve.krylov_self_s", pcg - phase_s(r, "solve/pcg/precond"));
    put("solve.iterations", counter(r, "pcg/iterations"));
    for (k, v) in &r.gauges {
        if k.starts_with("mg/level") && (k.ends_with("/rows") || k.ends_with("/nnz")) {
            put(&k.replace('/', "."), *v);
        }
        if k.starts_with("mem/level") {
            put(&k.replace('/', "."), *v);
        }
    }
    if let Some(c) = r.gauges.get("mg/operator_complexity") {
        put("mg.operator_complexity", *c);
    }
    if let Some(s) = r.sim_phases.iter().find(|s| s.name == "solve") {
        put("solve.flops", s.total_flops as f64);
        put("solve.bytes_computed", s.total_bytes as f64);
    }
    put("comm.msgs", counter(r, "comm/msgs"));
    put("comm.bytes", counter(r, "comm/bytes"));
    put("comm.allreduces", counter(r, "comm/allreduces"));
    put("comm.retries", counter(r, "comm/retries"));
    put(
        "trace.unattributed_s",
        sum_s(
            r.phases
                .iter()
                .filter(|p| !p.path.contains('/') && !ROOT_PHASES.contains(&p.path.as_str())),
        ),
    );
    m
}

/// Pool counters as deltas across a region of work.
pub struct PoolMark(rayon::PoolStats);

impl PoolMark {
    pub fn now() -> PoolMark {
        PoolMark(rayon::current_pool_stats())
    }

    pub fn delta_into(&self, m: &mut BTreeMap<String, f64>) {
        let now = rayon::current_pool_stats();
        m.insert("pool.tasks".into(), (now.tasks - self.0.tasks) as f64);
        m.insert(
            "pool.stolen_tasks".into(),
            (now.stolen_tasks - self.0.stolen_tasks) as f64,
        );
    }
}
