//! The symbolic/numeric split, observed end-to-end through telemetry:
//! after a hierarchy is built and a first Newton-style operator update has
//! happened, a second re-assembly + `update_operator` round on the same
//! sparsity pattern must perform **zero** symbolic work — no new RAP plan
//! builds, no new block-Jacobi block plans, no new assembly pattern builds
//! — while the plan-reuse and pattern-reuse counters keep climbing. The planned Galerkin products are
//! also checked numerically, level by level, against the unplanned
//! `CsrMatrix::rap` reference.
//!
//! Telemetry is process-global, so this test lives alone in its own
//! integration-test binary.

use pmg_bench::spheres_first_solve;
use pmg_fem::bc::constrain_system;
use prometheus::{MgOptions, Prometheus, PrometheusOptions};

fn counter(report: &pmg_telemetry::Report, name: &str) -> u64 {
    report.counters.get(name).copied().unwrap_or(0)
}

#[test]
fn second_update_round_is_numeric_only() {
    pmg_telemetry::reset();
    pmg_telemetry::set_enabled(true);

    let mut sys = spheres_first_solve(0);
    let ndof = sys.mesh.num_dof();
    let opts = PrometheusOptions {
        nranks: 2,
        mg: MgOptions {
            coarse_dof_threshold: 200,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut solver = Prometheus::from_mesh(&sys.mesh, &sys.matrix, opts);
    let nlevels = solver.mg.num_levels();
    assert!(nlevels >= 2, "need a real hierarchy, got {nlevels} levels");

    let fixed: Vec<(u32, f64)> = sys
        .problem
        .bcs_for_step(1, 10)
        .iter()
        .map(|b| (b.dof, b.value))
        .collect();
    // Two Newton-style rounds: re-assemble the tangent at a new (value-only)
    // displacement state and push it through the hierarchy.
    let mut round = |amplitude: f64, solver: &mut Prometheus| {
        let u: Vec<f64> = (0..ndof)
            .map(|i| amplitude * ((i * 7 % 13) as f64 / 13.0 - 0.5))
            .collect();
        let (k, r) = sys.problem.fem.assemble(&u);
        let (kc, _) = constrain_system(&k, &r, &fixed);
        solver.update_matrix(&kc);
        kc
    };

    let _k1 = round(1e-4, &mut solver);
    let c1 = pmg_telemetry::snapshot();
    let k2 = round(2e-4, &mut solver);
    let c2 = pmg_telemetry::snapshot();

    // Round 2 did real work...
    assert!(
        counter(&c2, "rap/plan_reuse") > counter(&c1, "rap/plan_reuse"),
        "round 2 executed no RAP plans: {:?}",
        c2.counters
    );
    assert!(
        counter(&c2, "assembly/pattern_reuse") > counter(&c1, "assembly/pattern_reuse"),
        "round 2 assembled nothing: {:?}",
        c2.counters
    );
    // ...but none of it symbolic: no RAP plan rebuilt, no sparsity/scatter
    // map rebuilt.
    assert_eq!(
        counter(&c2, "rap/plan_build"),
        counter(&c1, "rap/plan_build"),
        "round 2 rebuilt a RAP plan"
    );
    assert_eq!(
        counter(&c2, "assembly/pattern_build"),
        counter(&c1, "assembly/pattern_build"),
        "round 2 rebuilt the assembly pattern"
    );
    // The hierarchy was built with collection on, so the build itself is
    // accounted: one plan per non-coarsest level, built exactly once.
    assert_eq!(counter(&c2, "rap/plan_build"), (nlevels - 1) as u64);
    // Block-Jacobi smoothers likewise: one block plan per level at build,
    // then every level of both update rounds re-factors through it.
    assert_eq!(counter(&c2, "smoother/plan_build"), nlevels as u64);
    assert_eq!(counter(&c1, "smoother/plan_reuse"), nlevels as u64);
    assert_eq!(counter(&c2, "smoother/plan_reuse"), 2 * nlevels as u64);

    // Numeric check: every planned coarse operator matches the unplanned
    // triple product to 1e-12, level by level.
    let mut cur = k2.clone();
    for lvl in 0..nlevels - 1 {
        let r = solver.mg.levels[lvl]
            .r_global
            .as_ref()
            .expect("non-coarsest level keeps R");
        let reference = cur.rap(r);
        let planned = solver.mg.levels[lvl + 1].a.to_global();
        assert_eq!(planned.nrows(), reference.nrows(), "level {lvl}");
        let scale = reference
            .iter()
            .fold(0.0f64, |m, (_, _, v)| m.max(v.abs()))
            .max(1.0);
        for (i, j, v) in reference.iter() {
            let p = planned.get(i, j);
            assert!(
                (p - v).abs() <= 1e-12 * scale,
                "level {}: entry ({i},{j}) planned {p} vs rap {v}",
                lvl + 1
            );
        }
        cur = reference;
    }

    // A pattern change — one extra symmetric pair between two of rank 0's
    // fine rows — makes the update rebuild rank 0's level-0 block plan,
    // with no signal to the caller.
    let owned = solver.mg.levels[0].a.row_layout().owned(0);
    let (i, j) = (owned[0] as usize, owned[owned.len() - 1] as usize);
    assert_eq!(k2.get(i, j), 0.0, "pair ({i}, {j}) must be new");
    let mut extra = pmg_sparse::CooBuilder::new(k2.nrows(), k2.ncols());
    extra.push(i, j, -1e-3 * k2.get(i, i));
    extra.push(j, i, -1e-3 * k2.get(i, i));
    solver.update_matrix(&k2.add_scaled(&extra.build(), 1.0));
    let c3 = pmg_telemetry::snapshot();
    pmg_telemetry::set_enabled(false);
    assert!(
        counter(&c3, "smoother/plan_build") > counter(&c2, "smoother/plan_build"),
        "a pattern change reused a stale block plan"
    );
}
