//! `spmd_sockets`: the k=1 first solve over two rank processes on the
//! Unix-socket transport — partition at ingest (RCB) →
//! `RankHierarchy::build_from_shards` → `spmd_pcg`. Setup and solve repeat
//! inside the same rank processes, so process spawn and socket wiring are
//! not measured.

use crate::out::{
    layers_of, median, peak_rss_mb, reset_peak_rss, true_rel_residual, PoolMark, Record,
};
use crate::{build_system, paper_options, Ctx, RESIDUAL_FACTOR, RTOL};
use pmg_comm::{bytes_to_f64s, f64s_to_bytes, SocketTransport, Transport};
use pmg_solver::PcgOptions;
use pmg_sparse::CsrMatrix;
use prometheus::{spmd_pcg, RankHierarchy};
use std::time::Instant;

/// Rank processes; each runs a one-thread pool.
pub const RANKS: usize = 2;

/// Launch the rank processes and collect rank 0's record.
pub fn run(ctx: &Ctx) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let dir = ctx.work.join(format!("spmd-{}", std::process::id()));
    let out = dir.join("rank0.json");
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let args: Vec<String> = vec![
        "rank".into(),
        "--seconds".into(),
        ctx.seconds.to_string(),
        "--trace".into(),
        u8::from(ctx.trace).to_string(),
        "--out".into(),
        out.to_string_lossy().into_owned(),
    ];
    let exits =
        pmg_comm::launch::launch_with_env(RANKS, &exe, &args, Some(&dir), &[("PMG_THREADS", "1")])
            .map_err(|e| format!("launch ranks: {e:?}"))?;
    let text = std::fs::read_to_string(&out);
    let _ = std::fs::remove_dir_all(&dir);
    if let Some(bad) = exits.iter().find(|e| !e.status.success()) {
        return Err(format!("rank {} exited with {}", bad.rank, bad.status));
    }
    text.map_err(|e| format!("rank 0 record: {e}"))
}

/// Per-rank figures of one repeat, gathered to rank 0.
const FIELDS: usize = 9;

/// The global problem, held by rank 0 alone: it plans the ingest and
/// checks the gathered solution's true residual.
struct Global {
    mesh: pmg_mesh::Mesh,
    matrix: CsrMatrix,
    rhs: Vec<f64>,
}

/// One rank's owned rows of the fine problem, shipped once by rank 0.
struct Share {
    /// Global dof ids of the owned rows, in layout order.
    rows: Vec<u32>,
    a: CsrMatrix,
    b: Vec<f64>,
}

impl Share {
    fn encode(&self) -> Vec<u8> {
        let a = &self.a;
        let mut w = vec![
            self.rows.len() as u64,
            a.ncols() as u64,
            a.col_idx().len() as u64,
        ];
        w.extend(self.rows.iter().map(|&r| u64::from(r)));
        w.extend(a.row_ptr().iter().map(|&p| p as u64));
        w.extend(a.col_idx().iter().map(|&c| c as u64));
        w.extend(a.vals().iter().map(|v| v.to_bits()));
        w.extend(self.b.iter().map(|v| v.to_bits()));
        w.iter().flat_map(|x| x.to_le_bytes()).collect()
    }

    fn decode(bytes: &[u8]) -> Option<Share> {
        let w: Vec<u64> = bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8-byte chunk")))
            .collect();
        let (n, ncols, nnz) = (
            *w.first()? as usize,
            *w.get(1)? as usize,
            *w.get(2)? as usize,
        );
        if w.len() != 3 + n + (n + 1) + 2 * nnz + n {
            return None;
        }
        let (rows, rest) = w[3..].split_at(n);
        let (ptr, rest) = rest.split_at(n + 1);
        let (cols, rest) = rest.split_at(nnz);
        let (vals, b) = rest.split_at(nnz);
        let a = CsrMatrix::from_parts(
            n,
            ncols,
            ptr.iter().map(|&p| p as usize).collect(),
            cols.iter().map(|&c| c as usize).collect(),
            vals.iter().map(|&v| f64::from_bits(v)).collect(),
        );
        Some(Share {
            rows: rows.iter().map(|&r| r as u32).collect(),
            a,
            b: b.iter().map(|&v| f64::from_bits(v)).collect(),
        })
    }
}

/// Rank 0 cuts the global problem along the RCB partition the ingest plan
/// uses and ships each rank its owned rows; every rank returns its share.
fn ship_shares<T: Transport>(
    t: &mut T,
    global: Option<&Global>,
    dofs_per_vertex: usize,
) -> Result<Share, String> {
    let nranks = t.size();
    let parts = global.map(|g| {
        let part = pmg_partition::recursive_coordinate_bisection(&g.mesh.coords, nranks);
        let vlayout = pmg_parallel::Layout::from_part(part, nranks);
        let layout = pmg_parallel::Layout::expand_dofs(&vlayout, dofs_per_vertex);
        (0..nranks)
            .map(|r| {
                let rows = layout.owned(r).to_vec();
                let share = Share {
                    a: g.matrix.extract_rows(&rows),
                    b: rows.iter().map(|&i| g.rhs[i as usize]).collect(),
                    rows,
                };
                share.encode()
            })
            .collect()
    });
    let mine = pmg_comm::scatter(t, parts).map_err(|e| format!("ship shares: {e:?}"))?;
    Share::decode(&mine).ok_or_else(|| "malformed share".to_string())
}

/// One rank's body. Rank 0 builds the global system and ships each rank
/// its owned rows once; then every rank repeats setup + solve until rank 0
/// calls time. Only rank 0 ever holds global data, and each rank's
/// memory high-water mark restarts once its inputs are in place, so
/// `peak_rss_mb` measures the sharded setup and the solve.
pub fn rank_main(ctx: &Ctx, out: &str) -> Result<(), String> {
    let mut t = SocketTransport::connect_from_env().map_err(|e| format!("{e:?}"))?;
    let (rank, nranks) = (t.rank(), t.size());
    let root = rank == 0;
    // Before the pool starts, so no thread of this rank runs unbound.
    let binding = bind_to_core(rank);
    let mut opts = paper_options();
    opts.nranks = nranks;
    let solve_opts = PcgOptions {
        rtol: RTOL,
        max_iters: opts.max_iters,
        ..Default::default()
    };
    let comm = |e: pmg_comm::CommError| format!("rank {rank}: {e:?}");

    let (global, sys_layers) = if root {
        let (sys, layers) = build_system(crate::K, ctx.trace);
        let g = Global {
            mesh: sys.mesh,
            matrix: sys.matrix,
            rhs: sys.rhs,
        };
        (Some(g), layers)
    } else {
        (None, Default::default())
    };
    let share = ship_shares(&mut t, global.as_ref(), opts.mg.dofs_per_vertex)?;
    let rss_base = reset_peak_rss();

    let mut rec = Record::default();
    rec.fact("seed_used", "no (fixed first crush increment)");
    rec.fact("transport", "unix sockets (SocketTransport)");
    rec.fact("ranks", format!("{nranks} processes"));
    rec.fact("pool_threads", rayon::current_num_threads());
    rec.fact(
        "binding",
        match &binding {
            Ok(cpu) => format!("one core per rank, rank 0 on core {cpu}"),
            Err(e) => format!("unbound ({e})"),
        },
    );
    rec.fact(
        "peak_rss",
        match &rss_base {
            Ok(_) => "high-water mark restarted once each rank's inputs were in place",
            Err(_) => "whole process (the high-water mark could not be restarted)",
        },
    );
    let mut traced = Vec::new();
    let (mut tts_on, mut tts_off) = (Vec::new(), Vec::new());
    let mut start = Instant::now();
    // Repeat 0 warms up (untimed); the rest are measured.
    for i in 0.. {
        let trace_this = ctx.trace && i % 2 == 1;
        pmg_telemetry::reset();
        pmg_telemetry::set_enabled(trace_this);
        pmg_comm::barrier(&mut t).map_err(comm)?;
        let mark = PoolMark::now();
        let s0 = t.stats();
        let t0 = Instant::now();

        let plan = global.as_ref().map(|g| {
            // The bench's own span: the ingest plan is part of setup.
            let _setup = pmg_telemetry::scope("setup");
            let graph = g.mesh.vertex_graph();
            let classes = prometheus::classify_mesh_parallel(&g.mesh, opts.face_tol, nranks);
            let part = pmg_partition::recursive_coordinate_bisection(&g.mesh.coords, nranks);
            let shards = pmg_mesh::shard_mesh(&g.mesh, &part, nranks);
            let elems: Vec<u32> = shards
                .iter()
                .map(|s| s.mesh.num_elements() as u32)
                .collect();
            prometheus::plan_ingest_with_part(
                &g.mesh.coords,
                &graph,
                &classes,
                &elems,
                part,
                nranks,
                &opts.mg,
            )
        });
        let seed = prometheus::scatter_seeds(&mut t, plan.as_ref()).map_err(comm)?;
        let setup =
            RankHierarchy::build_from_shards(&mut t, &seed, &share.a, opts.mg).map_err(comm)?;
        let t1 = Instant::now();
        let s1 = t.stats();

        // The rows shipped up front must be the ones the plan assigned.
        let layout = setup.fine_layout().clone();
        if layout.owned(rank) != share.rows.as_slice() {
            return Err(format!(
                "rank {rank}: the ingest plan's owned rows differ from the shipped share"
            ));
        }
        let h = setup.rank_hierarchy();
        let mut xl = vec![0.0; share.b.len()];
        let (res, waits) = spmd_pcg(&mut t, &h, &share.b, &mut xl, solve_opts).map_err(comm)?;
        let t2 = Instant::now();
        let s2 = t.stats();

        let mine: [f64; FIELDS] = [
            (t1 - t0).as_secs_f64(),
            (t2 - t1).as_secs_f64(),
            peak_rss_mb(),
            waits.halo_s,
            waits.allreduce_s,
            waits.coarse_s,
            waits.halo_hidden_s,
            (s1.wait_s - s0.wait_s),
            rss_base.as_ref().copied().unwrap_or(f64::NAN),
        ];
        let per_rank = pmg_comm::gather(&mut t, &f64s_to_bytes(&mine)).map_err(comm)?;
        let xs = pmg_comm::gather(&mut t, &f64s_to_bytes(&xl)).map_err(comm)?;
        let snapshot = trace_this.then(pmg_telemetry::snapshot);
        pmg_telemetry::set_enabled(false);

        let mut go = vec![0u8];
        if let (Some(per_rank), Some(xs), Some(g)) = (per_rank, xs, &global) {
            let f: Vec<Vec<f64>> = per_rank.iter().map(|b| bytes_to_f64s(b)).collect();
            let slowest = |j: usize| f.iter().map(|r| r[j]).fold(0.0, f64::max);
            let (setup_s, solve_s) = (slowest(0), slowest(1));
            let mut x = vec![0.0; layout.num_global()];
            for (rk, blob) in xs.iter().enumerate() {
                for (&g, &v) in layout.owned(rk).iter().zip(&bytes_to_f64s(blob)) {
                    x[g as usize] = v;
                }
            }
            if i > 0 {
                rec.push("setup_s", setup_s);
                rec.push("solve_s", solve_s);
                rec.push("time_to_solution_s", setup_s + solve_s);
                rec.push("peak_rss_mb", slowest(2));
                for (rk, r) in f.iter().enumerate() {
                    rec.push(&format!("peak_rss_mb.rank{rk}"), r[2]);
                    rec.push(&format!("inputs_rss_mb.rank{rk}"), r[8]);
                }
                let rel = true_rel_residual(&g.matrix, &g.rhs, &x);
                rec.check(res.converged && rel <= RESIDUAL_FACTOR * RTOL, || {
                    format!(
                        "spmd solve: converged={} true residual {rel:.3e} (rtol {RTOL:e})",
                        res.converged
                    )
                });
                rec.exact("solve.iterations", res.iterations as f64);
                rec.exact("solve.true_rel_residual", rel);
                rec.exact("mg.levels", setup.num_levels() as f64);
                for l in 0..setup.num_levels() {
                    rec.exact(&format!("mg.level{l}.rows"), setup.level_rows(l) as f64);
                }
                rec.exact("comm.msgs", (s2.msgs - s0.msgs) as f64);
                rec.exact("comm.bytes", (s2.bytes - s0.bytes) as f64);
                rec.exact("comm.allreduces", (s2.allreduces - s0.allreduces) as f64);
                let tts = setup_s + solve_s;
                if let Some(r) = &snapshot {
                    let mut m = layers_of(r);
                    mark.delta_into(&mut m);
                    m.extend(sys_layers.clone());
                    let mut put = |k: &str, v: f64| {
                        m.insert(k.to_string(), v);
                    };
                    put("comm.msgs", (s2.msgs - s0.msgs) as f64);
                    put("comm.bytes", (s2.bytes - s0.bytes) as f64);
                    put("comm.allreduces", (s2.allreduces - s0.allreduces) as f64);
                    put("comm.retries", (s2.retries - s0.retries) as f64);
                    put("comm.setup_msgs", (s1.msgs - s0.msgs) as f64);
                    put("comm.setup_bytes", (s1.bytes - s0.bytes) as f64);
                    put("comm.setup_wait_s", slowest(7));
                    put("comm.wait.halo_s", slowest(3));
                    put("comm.wait.allreduce_s", slowest(4));
                    put("comm.wait.coarse_s", slowest(5));
                    put("comm.overlap.halo_hidden_s", slowest(6));
                    for l in 0..setup.num_levels() {
                        put(
                            &format!("mem.level{l}.operator_bytes"),
                            setup.level_operator_bytes(l) as f64,
                        );
                    }
                    traced.push(m);
                    tts_on.push(tts);
                } else {
                    tts_off.push(tts);
                }
            }
            if i == 0 {
                start = Instant::now();
            }
            // Another repeat while the budget has time left (a traced run
            // needs both a traced and an untraced one).
            let need = if ctx.trace { 2 } else { 3 };
            let measured = tts_on.len() + tts_off.len();
            go[0] = u8::from(measured < need || start.elapsed().as_secs_f64() < ctx.seconds);
        }
        pmg_comm::broadcast(&mut t, &mut go).map_err(comm)?;
        if go[0] == 0 {
            break;
        }
    }
    if root {
        if ctx.trace {
            rec.layers_from(&traced);
            rec.layers.insert(
                "trace.overhead_frac".into(),
                median(&tts_on) / median(&tts_off) - 1.0,
            );
        }
        std::fs::write(out, rec.to_json()).map_err(|e| e.to_string())?;
    }
    Ok(())
}

/// glibc's `cpu_set_t`: a bit mask over 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// Bind the calling thread to the `rank`-th core it may run on, as
/// `mpiexec --bind-to core` does. Unbound, the scheduler at times stacks
/// both lockstep ranks on one core, and a whole run's solves then take up
/// to twice as long.
fn bind_to_core(rank: usize) -> Result<usize, String> {
    let mut allowed: CpuSet = [0; 16];
    // SAFETY: `allowed` is a live, writable buffer of the size passed;
    // pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut allowed) } != 0 {
        return Err(format!(
            "sched_getaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    let cpus: Vec<usize> = (0..1024)
        .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
        .collect();
    if cpus.is_empty() {
        return Err("no allowed core".into());
    }
    let cpu = cpus[rank % cpus.len()];
    let mut mask: CpuSet = [0; 16];
    mask[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live buffer of the size passed; pid 0 names the
    // calling thread.
    if unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask) } != 0 {
        return Err(format!(
            "sched_setaffinity: {}",
            std::io::Error::last_os_error()
        ));
    }
    Ok(cpu)
}
