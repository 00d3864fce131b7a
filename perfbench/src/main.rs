//! The repository benchmark's measuring program.
//!
//! `run.py` builds this binary and drives it; each invocation runs one
//! workload and prints one JSON record (raw samples, exact counts,
//! per-layer medians, checked-operation tallies) as its last stdout line.
//!
//! ```text
//! perfbench run <crush|spmd_sockets|serve> --seed N --seconds S
//!           --trace 0|1 --work DIR
//! perfbench rank   ...   (one SPMD rank; spawned by the spmd_sockets workload)
//! perfbench daemon ...   (the pmg-serve daemon; spawned by the serve workload)
//! ```
//!
//! The program drives only public entry points of the solver crates and
//! times its own calls into them; per-layer numbers come from the
//! existing telemetry registry.

mod crush;
mod out;
mod serve;
mod spmd;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Settings shared by every workload.
#[derive(Clone, Debug)]
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Scratch directory for sockets and hand-off files (relative to the
    /// working directory, so socket paths stay short).
    pub work: PathBuf,
}

/// A solve passes when its true relative residual, recomputed outside the
/// solver, is at most this factor times the requested `rtol`.
pub const RESIDUAL_FACTOR: f64 = 2.0;

/// The paper's first-solve tolerance.
pub const RTOL: f64 = 1e-4;

/// Ladder point of the k=1 workloads (17,160 dof).
pub const K: usize = 1;

/// Paper options for the k=1 workloads: coarse grids down to 600 dof, two
/// virtual ranks (the paper ran k=1 on 2 CPUs), PCG capped at 400.
pub fn paper_options() -> prometheus::PrometheusOptions {
    prometheus::PrometheusOptions {
        nranks: pmg_bench::ranks_for(K),
        mg: prometheus::MgOptions {
            coarse_dof_threshold: 600,
            ..Default::default()
        },
        max_iters: 400,
        ..Default::default()
    }
}

/// Record a hierarchy's level shape as exact counts.
pub fn exact_levels(rec: &mut out::Record, solver: &prometheus::Prometheus) {
    rec.exact("mg.levels", solver.mg.levels.len() as f64);
    for (l, level) in solver.mg.levels.iter().enumerate() {
        rec.exact(
            &format!("mg.level{l}.rows"),
            level.a.row_layout().num_global() as f64,
        );
        rec.exact(&format!("mg.level{l}.nnz"), level.a.nnz() as f64);
    }
}

/// Build the k-th spheres first-solve system (mesh, assembled tangent,
/// constrained right-hand side). With `trace` on, the one-time assembly
/// is recorded and returned as per-layer metrics.
pub fn build_system(
    k: usize,
    trace: bool,
) -> (
    pmg_bench::FirstSolveSystem,
    std::collections::BTreeMap<String, f64>,
) {
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(trace);
    let sys = pmg_bench::spheres_first_solve(k);
    let r = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    let mut m = std::collections::BTreeMap::new();
    if trace {
        let all = out::layers_of(&r);
        for k in [
            "fem.assemble_s",
            "assembly.pattern_build",
            "assembly.pattern_reuse",
        ] {
            m.insert(k.to_string(), all[k]);
        }
    }
    (sys, m)
}

/// Run `body(i)` at least `min` times, and start another repeat while the
/// `seconds` budget has time left: a run overshoots it by at most one repeat.
pub fn repeat_for(seconds: f64, min: usize, mut body: impl FnMut(usize)) {
    let start = Instant::now();
    let mut n = 0;
    while n < min || start.elapsed().as_secs_f64() < seconds {
        body(n);
        n += 1;
    }
}

struct Args(Vec<String>);

impl Args {
    fn get(&self, flag: &str) -> Option<&str> {
        self.0
            .iter()
            .position(|a| a == flag)
            .and_then(|i| self.0.get(i + 1))
            .map(String::as_str)
    }

    fn parse<T: std::str::FromStr>(&self, flag: &str, default: T) -> Result<T, String> {
        match self.get(flag) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad value {v:?} for {flag}")),
        }
    }

    fn ctx(&self) -> Result<Ctx, String> {
        Ok(Ctx {
            seed: self.parse("--seed", 1)?,
            seconds: self.parse("--seconds", 10.0)?,
            trace: self.parse::<u8>("--trace", 0)? != 0,
            work: PathBuf::from(self.get("--work").unwrap_or("perfbench-work")),
        })
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let role = argv.first().cloned().unwrap_or_default();
    let args = Args(argv);
    let result = (|| -> Result<(), String> {
        match role.as_str() {
            "run" => {
                let ctx = args.ctx()?;
                std::fs::create_dir_all(&ctx.work).map_err(|e| e.to_string())?;
                let workload = args.0.get(1).map(String::as_str).unwrap_or("");
                let record = match workload {
                    "crush" => crush::run(&ctx).to_json(),
                    "spmd_sockets" => spmd::run(&ctx)?,
                    "serve" => serve::run(&ctx)?.to_json(),
                    other => return Err(format!("unknown workload {other:?}")),
                };
                println!("{record}");
                Ok(())
            }
            "rank" => spmd::rank_main(&args.ctx()?, args.get("--out").unwrap_or("rank0.json")),
            "daemon" => serve::daemon_main(
                args.get("--unix").ok_or("daemon needs --unix")?,
                args.parse::<u8>("--trace", 0)? != 0,
            ),
            _ => Err(format!(
                "usage: perfbench run|rank|daemon ... (got {role:?})"
            )),
        }
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(2)
        }
    }
}
