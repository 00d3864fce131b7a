//! `crush`: the leading load steps of the paper's ten-step nonlinear
//! crush at k=1, through `NewtonDriver` with `update_matrix` + `solve` per
//! Newton iteration. Coarsening is paid once per repeat; every Newton
//! iteration re-runs the numeric setup (planned RAP, block-Jacobi
//! refactorization) and a plastic-tangent solve.

use crate::out::{layers_of, median, true_rel_residual, PoolMark, Record};
use crate::{build_system, exact_levels, paper_options, repeat_for, Ctx, RESIDUAL_FACTOR};
use pmg_fem::{NewtonDriver, NewtonOptions};
use prometheus::Prometheus;
use std::time::{Duration, Instant};

/// Load steps run per repeat, out of the paper's ten.
pub const STEPS: usize = 1;
/// The paper's schedule length.
pub const SCHEDULE: usize = 10;

pub fn run(ctx: &Ctx) -> Record {
    let mut rec = Record::default();
    rec.fact("seed_used", "no (fixed crush schedule)");
    rec.fact("ranks", "1 process, 2 virtual ranks");
    rec.fact("pool_threads", rayon::current_num_threads());
    rec.fact("steps", format!("{STEPS} of {SCHEDULE}"));
    let (sys, _) = build_system(crate::K, ctx.trace);
    let params = pmg_mesh::SpheresParams::ladder(crate::K);
    let opts = paper_options();
    let driver = NewtonDriver::new(NewtonOptions::default());

    let mut traced = Vec::new();
    let (mut tts_on, mut tts_off) = (Vec::new(), Vec::new());
    // A traced run alternates traced and untraced repeats, so it needs two.
    repeat_for(ctx.seconds, if ctx.trace { 2 } else { 1 }, |i| {
        let trace_this = ctx.trace && i % 2 == 0;
        pmg_telemetry::reset();
        pmg_telemetry::set_enabled(trace_this);
        // A fresh material state: the crush history starts unloaded.
        let mut problem = pmg_fem::spheres_problem(&params);
        let mut u = vec![0.0; sys.mesh.num_dof()];
        let mark = PoolMark::now();

        let t0 = Instant::now();
        let mut checking = Duration::ZERO;
        let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
        rec.push("setup_s", t0.elapsed().as_secs_f64());
        let mut linear = Vec::new();
        let mut residuals = Vec::new();
        for step in 1..=STEPS {
            let bcs = problem.bcs_for_step(step, SCHEDULE);
            let mut solve = |kc: &pmg_sparse::CsrMatrix, rhs: &[f64], rtol: f64| {
                solver.update_matrix(kc);
                let s = Instant::now();
                let (x, res) = solver.solve(rhs, None, rtol);
                let c = Instant::now();
                rec.push("solve_s", (c - s).as_secs_f64());
                let rel = true_rel_residual(kc, rhs, &x);
                rec.check(res.converged && rel <= RESIDUAL_FACTOR * rtol, || {
                    format!(
                        "crush step {step}: linear solve converged={} true residual \
                         {rel:.3e} (rtol {rtol:.3e})",
                        res.converged
                    )
                });
                residuals.push(rel);
                checking += c.elapsed();
                (x, res.iterations)
            };
            let stats = driver.solve_step(&mut problem.fem, &mut u, &bcs, &mut solve);
            rec.check(stats.converged, || {
                format!("crush step {step}: Newton did not converge")
            });
            rec.exact(
                &format!("crush.step{step}.newton_iters"),
                stats.newton_iters as f64,
            );
            for (m, &it) in stats.linear_iters.iter().enumerate() {
                rec.exact(&format!("crush.step{step}.linear{m}"), it as f64);
            }
            for (m, rel) in residuals.drain(..).enumerate() {
                rec.exact(&format!("crush.step{step}.true_rel_residual{m}"), rel);
            }
            linear.extend(stats.linear_iters);
        }
        let elapsed = t0.elapsed();
        let tts = (elapsed - checking).as_secs_f64();
        rec.push("time_to_solution_s", tts);
        exact_levels(&mut rec, &solver);
        if trace_this {
            let mut m = layers_of(&solver.report());
            mark.delta_into(&mut m);
            m.insert("crush.newton_iters".into(), linear.len() as f64);
            m.insert(
                "crush.linear_iters".into(),
                linear.iter().sum::<usize>() as f64,
            );
            traced.push(m);
            tts_on.push(tts);
        } else {
            tts_off.push(tts);
        }
        pmg_telemetry::set_enabled(false);
    });
    if ctx.trace {
        rec.layers_from(&traced);
        rec.layers.insert(
            "trace.overhead_frac".into(),
            median(&tts_on) / median(&tts_off) - 1.0,
        );
    }
    rec.push("peak_rss_mb", crate::out::peak_rss_mb());
    rec
}
