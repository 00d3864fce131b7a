//! `serve`: the `pmg-serve` daemon in its own process, spheres k=1 over 2
//! virtual ranks, rtol 1e-4, warm cache. Two closed-loop clients send
//! requests whose right-hand sides are drawn from a seeded pool; the
//! daemon coalesces concurrent ones into blocked solves. Every reply must
//! be bitwise the offline `parity_solver` answer for its right-hand side.

use crate::out::{layers_of, median, peak_rss_mb, PoolMark, Record};
use crate::{Ctx, RTOL};
use pmg_serve::{Client, ClientError, ProblemSpec, ServeConfig, SolveReply};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Closed-loop client connections.
pub const CONNECTIONS: usize = 2;
/// Cold daemon starts per run; `setup_s` is their median.
pub const COLD_STARTS: usize = 3;
/// Requests per run at the least, whatever the time budget.
pub const MIN_REQUESTS: usize = 20;
/// Right-hand sides in the seeded pool.
pub const POOL: usize = 4;
const NRANKS: usize = 2;

/// Deterministic generator for the seeded inputs (SplitMix64).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

fn spec() -> ProblemSpec {
    ProblemSpec {
        name: "spheres".into(),
        k: crate::K,
        nranks: NRANKS,
    }
}

/// The daemon role: serve on `unix` until a shutdown request drains it,
/// then print this process's peak RSS and (traced) telemetry layers.
pub fn daemon_main(unix: &str, trace: bool) -> Result<(), String> {
    pmg_telemetry::set_enabled(trace);
    let config = ServeConfig {
        unix_path: Some(unix.into()),
        ..Default::default()
    };
    let mark = PoolMark::now();
    let handle = pmg_serve::serve(config).map_err(|e| format!("serve: {e}"))?;
    println!("listening");
    use std::io::Write as _;
    let _ = std::io::stdout().flush();
    handle.wait();
    let mut rec = Record::default();
    if trace {
        rec.layers = layers_of(&pmg_telemetry::snapshot());
        mark.delta_into(&mut rec.layers);
    }
    rec.push("peak_rss_mb", peak_rss_mb());
    println!("{}", rec.to_json());
    Ok(())
}

/// A running daemon process; killed and reaped if dropped unfinished.
struct Daemon {
    child: Child,
    stdout: BufReader<ChildStdout>,
    path: PathBuf,
}

impl Daemon {
    fn start(work: &Path, n: usize, trace: bool) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let path = work.join(format!("serve-{}-{n}.sock", std::process::id()));
        let mut child = Command::new(exe)
            .args(["daemon", "--unix"])
            .arg(&path)
            .args(["--trace", if trace { "1" } else { "0" }])
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let _ = stdout.read_line(&mut line);
        let d = Daemon {
            child,
            stdout,
            path,
        };
        if line.trim() != "listening" {
            return Err(format!("daemon did not start: {line:?}"));
        }
        Ok(d)
    }

    fn client(&self) -> Result<Client, String> {
        Client::connect_unix(&self.path).map_err(|e| format!("connect: {e}"))
    }

    /// Drain the daemon and return its exit record.
    fn stop(mut self) -> Result<(f64, BTreeMap<String, f64>), String> {
        self.client()?
            .shutdown()
            .map_err(|e| format!("shutdown: {e:?}"))?;
        let mut text = String::new();
        let _ = self.stdout.read_to_string(&mut text);
        let status = self.child.wait().map_err(|e| e.to_string())?;
        if !status.success() {
            return Err(format!("daemon exited with {status}"));
        }
        let v = pmg_telemetry::json::parse(text.lines().last().unwrap_or(""))?;
        let rss = v
            .get("samples")
            .and_then(|s| s.get("peak_rss_mb"))
            .and_then(|a| match a {
                pmg_telemetry::json::Value::Arr(x) => x.first().and_then(|n| n.as_f64()),
                _ => None,
            })
            .unwrap_or(f64::NAN);
        let mut layers = BTreeMap::new();
        if let Some(pmg_telemetry::json::Value::Obj(pairs)) = v.get("layers") {
            for (k, n) in pairs {
                layers.insert(k.clone(), n.as_f64().unwrap_or(0.0));
            }
        }
        Ok((rss, layers))
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// The seeded right-hand-side pool and its offline answers.
struct Pool {
    bs: Vec<Vec<f64>>,
    xs: Vec<Vec<f64>>,
    iters: Vec<usize>,
}

impl Pool {
    fn new(seed: u64) -> Pool {
        let sys = pmg_bench::spheres_first_solve(crate::K);
        let mut solver = pmg_bench::parity_solver(&sys, pmg_bench::parity_options(NRANKS));
        let rms = (sys.rhs.iter().map(|v| v * v).sum::<f64>() / sys.rhs.len() as f64).sqrt();
        let mut rng = Rng::new(seed);
        let bs: Vec<Vec<f64>> = (0..POOL)
            .map(|_| {
                let scale = 0.5 + rng.uniform();
                sys.rhs
                    .iter()
                    .map(|&r| scale * r + 0.1 * rms * (2.0 * rng.uniform() - 1.0))
                    .collect()
            })
            .collect();
        let (mut xs, mut iters) = (Vec::new(), Vec::new());
        for b in &bs {
            let (x, res) = solver.solve(b, None, RTOL);
            xs.push(x);
            iters.push(res.iterations);
        }
        Pool { bs, xs, iters }
    }
}

/// One answered request.
struct Done {
    sent: Instant,
    done: Instant,
    reply: Result<SolveReply, String>,
    pick: usize,
    busy: u64,
}

/// Send one request; a `busy` answer is retried once after a short pause.
fn request(
    c: &mut Client,
    fp: u64,
    pool: &Pool,
    pick: usize,
    id: usize,
) -> (Result<SolveReply, String>, u64) {
    let mut busy = 0;
    loop {
        match c.solve_fingerprint(fp, Some(pool.bs[pick].clone()), RTOL, &id.to_string()) {
            Err(ClientError::Busy) if busy == 0 => {
                busy += 1;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => {
                return (
                    Err(format!("{e:?}")),
                    busy + u64::from(matches!(e, ClientError::Busy)),
                )
            }
            Ok(r) => return (Ok(r), busy),
        }
    }
}

/// Closed loop: `CONNECTIONS` clients, each sending its next request as
/// soon as the previous one answers, until `secs` seconds have passed and
/// at least `min` requests were sent.
fn closed_loop(
    d: &Daemon,
    fp: u64,
    pool: &Pool,
    secs: f64,
    min: usize,
    seed: u64,
) -> Result<(Vec<Done>, f64), String> {
    let clients: Vec<Client> = (0..CONNECTIONS)
        .map(|_| d.client())
        .collect::<Result<_, _>>()?;
    let results = Mutex::new(Vec::new());
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(secs);
    let per_client = min.div_ceil(CONNECTIONS);
    std::thread::scope(|s| {
        for (ci, mut c) in clients.into_iter().enumerate() {
            let results = &results;
            s.spawn(move || {
                let mut rng = Rng::new(seed.wrapping_add(ci as u64 + 1));
                let mut i = 0;
                while i < per_client || Instant::now() < end {
                    let pick = (rng.next_u64() % POOL as u64) as usize;
                    let sent = Instant::now();
                    let (reply, busy) = request(&mut c, fp, pool, pick, i);
                    let done = Instant::now();
                    results.lock().unwrap().push(Done {
                        sent,
                        done,
                        reply,
                        pick,
                        busy,
                    });
                    i += 1;
                }
            });
        }
    });
    let wall = start.elapsed().as_secs_f64();
    Ok((results.into_inner().unwrap(), wall))
}

/// Check every reply against the offline answer; return the latencies of
/// the good ones and fold the reply stages into `stages`.
fn check(
    rec: &mut Record,
    phase: &str,
    pool: &Pool,
    done: &[Done],
    stages: &mut BTreeMap<&'static str, Vec<f64>>,
) -> Vec<f64> {
    let mut lat = Vec::new();
    for d in done {
        let ok = match &d.reply {
            Ok(r) => {
                r.converged
                    && r.iterations == pool.iters[d.pick]
                    && r.x.len() == pool.xs[d.pick].len()
                    && r.x
                        .iter()
                        .zip(&pool.xs[d.pick])
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            Err(_) => false,
        };
        rec.check(ok, || match &d.reply {
            Ok(r) => format!(
                "{phase}: reply {} differs from the offline answer (converged={}, {} vs {} iterations)",
                r.id, r.converged, r.iterations, pool.iters[d.pick]
            ),
            Err(e) => format!("{phase}: request failed: {e}"),
        });
        let mut put = |k: &'static str, v: f64| stages.entry(k).or_default().push(v);
        put("serve.busy", d.busy as f64);
        if let Ok(r) = &d.reply {
            let wire = (d.done - d.sent).as_secs_f64();
            let frame = wire - r.queue_s - r.setup_s - r.solve_s;
            put("serve.queue_s", r.queue_s);
            put("serve.solve_s", r.solve_s);
            put("serve.frame_s", frame);
            // Each stage's share of the request's latency.
            put("serve.queue_frac", r.queue_s / wire);
            put("serve.solve_frac", r.solve_s / wire);
            put("serve.frame_frac", frame / wire);
            put("serve.batch_mean", r.batched as f64);
            put("serve.cache_hit_rate", f64::from(u8::from(r.cache_hit)));
        }
        if ok {
            lat.push((d.done - d.sent).as_secs_f64());
        }
    }
    lat
}

pub fn run(ctx: &Ctx) -> Result<Record, String> {
    let started = Instant::now();
    let mut rec = Record::default();
    rec.fact("seed_used", "yes (right-hand-side pool and request order)");
    rec.fact(
        "transport",
        "unix socket client protocol; 2 virtual ranks in the daemon",
    );
    rec.fact("ranks", "1 daemon process, 2 virtual ranks");
    rec.fact("pool_threads", rayon::current_num_threads());
    rec.fact("clients", format!("{CONNECTIONS} closed-loop connections"));
    let pool = Pool::new(ctx.seed);

    // Cold starts: each a fresh daemon whose first `warm` builds the
    // hierarchy. The last one stays up and serves the load.
    let mut daemon = None;
    let mut fp = 0;
    for n in 0..COLD_STARTS {
        if let Some(d) = daemon.take() {
            Daemon::stop(d)?;
        }
        let d = Daemon::start(&ctx.work, n, false)?;
        let t = Instant::now();
        let warmed = d.client()?.warm(&spec());
        let setup = t.elapsed().as_secs_f64();
        let (key, hit, _) = warmed.map_err(|e| format!("warm: {e:?}"))?;
        rec.check(!hit, || "cold daemon answered warm from cache".into());
        rec.push("setup_s", setup);
        fp = key;
        daemon = Some(d);
    }
    let mut d = daemon.expect("COLD_STARTS > 0");

    // The closed loop gets what is left of the budget. A traced run splits
    // it between this untraced daemon and a traced one; the ratio of their
    // median latencies is the tracing overhead.
    let left = (ctx.seconds - started.elapsed().as_secs_f64()).max(0.0);
    let (secs, min) = if ctx.trace {
        (left / 2.0, MIN_REQUESTS / 2)
    } else {
        (left, MIN_REQUESTS)
    };
    let mut stages = BTreeMap::new();
    let (done, wall) = closed_loop(&d, fp, &pool, secs, min, ctx.seed)?;
    let lat = check(&mut rec, "closed loop", &pool, &done, &mut stages);
    // A blocked solve's time is shared by its columns: per right-hand
    // side, a batch of two costs about what a solo solve does.
    for r in done.iter().filter_map(|d| d.reply.as_ref().ok()) {
        rec.push("solve_s", r.solve_s / r.batched as f64);
    }
    for &l in &lat {
        rec.push("time_to_solution_s", l);
    }
    rec.push("throughput_rps", lat.len() as f64 / wall);
    for i in 0..POOL {
        rec.exact(&format!("serve.pool{i}.iterations"), pool.iters[i] as f64);
    }

    let mut layers = BTreeMap::new();
    if ctx.trace {
        Daemon::stop(d)?;
        d = Daemon::start(&ctx.work, COLD_STARTS, true)?;
        d.client()?
            .warm(&spec())
            .map_err(|e| format!("warm: {e:?}"))?;
        let (traced, _) = closed_loop(&d, fp, &pool, secs, min, ctx.seed)?;
        let lat_traced = check(
            &mut rec,
            "closed loop (traced)",
            &pool,
            &traced,
            &mut BTreeMap::new(),
        );
        layers.insert(
            "trace.overhead_frac".to_string(),
            median(&lat_traced) / median(&lat) - 1.0,
        );
    }

    let (rss, daemon_layers) = Daemon::stop(d)?;
    rec.push("peak_rss_mb", rss);
    if ctx.trace {
        layers.extend(daemon_layers);
        for (k, v) in &stages {
            let agg = match *k {
                "serve.busy" => v.iter().sum(),
                "serve.batch_mean" | "serve.cache_hit_rate" => {
                    v.iter().sum::<f64>() / v.len() as f64
                }
                _ => median(v),
            };
            layers.insert(k.to_string(), agg);
        }
        rec.layers = layers;
    }
    Ok(rec)
}
