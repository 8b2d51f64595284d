//! The serving path: an in-process `tkdc-serve` server on loopback, an
//! open-loop request generator, and the `serve.*` layer measurements.

use std::hint::black_box;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use crate::adapter::{self, Classifier, Label, Matrix, ServerHandle, StatsSnapshot};
use crate::checks::{self, Ledger};
use crate::layers::{self, Ctx};
use crate::queries::{training_rows, Mix, QuerySet};
use crate::report::{block_quantile, median, nproc, quantile, ratio, Metrics, P99_BLOCK};
use crate::spans::{Recorder, SpanId};
use crate::workload::{self, fit_threads, Outcome, Run, SETUP_REPS};

/// Points per Classify request.
pub const REQ_POINTS: usize = 64;
/// Batch threads of the server (its `ExecPolicy`), fixed whatever the host.
pub const SERVER_THREADS: usize = 2;
/// Client and server socket timeout; a request that takes longer fails.
const TIMEOUT: Duration = Duration::from_secs(5);
/// How long before a request's due time the generator stops sleeping.
const SPIN: Duration = Duration::from_micros(200);
/// Ping round trips timed for the wire latency.
const PINGS: usize = 2000;
/// Request frames encoded and decoded in memory per direction.
const FRAMES: usize = 256;

/// A running in-process server.
pub struct LiveServer {
    handle: ServerHandle,
    pub addr: String,
}

impl LiveServer {
    /// Binds `clf` on an ephemeral loopback port and starts serving.
    pub fn start(rec: &Recorder, clf: Classifier) -> adapter::Result<Self> {
        let (server, _) = rec.time("serve.bind", SpanId::NONE, |_| {
            adapter::bind(clf, SERVER_THREADS, TIMEOUT)
        });
        let handle = adapter::spawn(server?);
        let addr = adapter::server_addr(&handle).to_string();
        Ok(Self { handle, addr })
    }

    /// The server's own metrics snapshot.
    pub fn stats(&self) -> adapter::Result<StatsSnapshot> {
        let mut client = adapter::connect(&self.addr, TIMEOUT)?;
        adapter::remote_stats(&mut client)
    }

    /// Asks the server to drain and waits until it has stopped.
    pub fn stop(self) -> adapter::Result<()> {
        let mut client = adapter::connect(&self.addr, TIMEOUT)?;
        adapter::remote_shutdown(&mut client)?;
        adapter::join(self.handle)
    }
}

/// The request payloads: consecutive `REQ_POINTS`-row slices of the
/// query set, at most `max` of them.
pub fn requests(qs: &crate::queries::QuerySet, max: usize) -> Vec<Arc<Matrix>> {
    qs.chunks(REQ_POINTS)
        .into_iter()
        .filter(|r| r.len() == REQ_POINTS)
        .take(max)
        .map(|r| Arc::new(qs.rows(r)))
        .collect()
}

/// What the open loop observed.
#[derive(Debug, Default)]
pub struct Load {
    /// Latency of every request, from its due time to its answer, µs.
    pub lat_us: Vec<f64>,
    /// Due time of every request, s after the start (aligned with
    /// `lat_us`).
    pub due_s: Vec<f64>,
    /// How late each request was sent after its due time, µs.
    pub lag_us: Vec<f64>,
    /// Latencies of the traced and untraced halves of a traced run.
    pub traced_us: Vec<f64>,
    pub untraced_us: Vec<f64>,
    pub untraced: Duration,
    pub attempted: usize,
    pub errors: usize,
    pub wrong: usize,
    /// Requests answered correctly within the latency limit.
    pub good: usize,
    pub points_answered: usize,
    /// From the first due time to the last answer, s.
    pub wall_s: f64,
}

impl Load {
    fn merge(&mut self, o: Load) {
        self.lat_us.extend(o.lat_us);
        self.due_s.extend(o.due_s);
        self.lag_us.extend(o.lag_us);
        self.traced_us.extend(o.traced_us);
        self.untraced_us.extend(o.untraced_us);
        self.untraced += o.untraced;
        self.attempted += o.attempted;
        self.errors += o.errors;
        self.wrong += o.wrong;
        self.good += o.good;
        self.points_answered += o.points_answered;
        self.wall_s = self.wall_s.max(o.wall_s);
    }
}

/// Open loop: `conns` connections share a fixed offered `rate` (req/s)
/// for `seconds`. Request `k` of connection `c` is due at
/// `start + (k + c/conns) · conns/rate`; it is sent when due (or as soon
/// as the previous answer on its connection arrives, if that is later)
/// and timed from its due time, so a stall also counts against the
/// requests queued behind it. Request `j` carries payload
/// `j mod payloads.len()`, whose in-process labels are `refs`. In a
/// traced run every other request records spans.
#[allow(clippy::too_many_arguments)]
pub fn open_loop(
    rec: &Recorder,
    addr: &str,
    payloads: &[Arc<Matrix>],
    refs: &[Vec<Label>],
    rate: f64,
    conns: usize,
    seconds: f64,
    limit_us: f64,
) -> Load {
    let interval = Duration::from_secs_f64(conns as f64 / rate);
    let start = Instant::now() + Duration::from_millis(20);
    let end = start + Duration::from_secs_f64(seconds);
    let mut total = Load::default();
    thread::scope(|s| {
        let workers: Vec<_> = (0..conns)
            .map(|c| {
                s.spawn(move || {
                    let mut load = Load::default();
                    let mut client = adapter::connect(addr, TIMEOUT).ok();
                    let phase = interval.mul_f64(c as f64 / conns as f64);
                    for k in 0u32.. {
                        let due = start + phase + interval * k;
                        if due >= end {
                            break;
                        }
                        wait_until(due);
                        let j = k as usize * conns + c;
                        let p = j % payloads.len();
                        let sent = Instant::now();
                        let res = client
                            .as_mut()
                            .map(|cl| adapter::remote_classify(cl, &payloads[p]));
                        let done = Instant::now();
                        load.wall_s = (done - start).as_secs_f64();
                        load.attempted += 1;
                        let lat = (done - due).as_secs_f64() * 1e6;
                        load.lat_us.push(lat);
                        load.due_s.push((due - start).as_secs_f64());
                        load.lag_us.push((sent - due).as_secs_f64() * 1e6);
                        match res {
                            Some(Ok(labels)) => {
                                let bad = checks::mismatches(&labels, &refs[p]) > 0;
                                load.wrong += usize::from(bad);
                                load.points_answered += labels.len();
                                load.good += usize::from(!bad && lat <= limit_us);
                            }
                            _ => {
                                load.errors += 1;
                                // A failed exchange may leave the stream
                                // mid-frame; start a fresh connection.
                                client = adapter::connect(addr, TIMEOUT).ok();
                            }
                        }
                        if rec.on() {
                            if k.is_multiple_of(2) {
                                let req = j as u64;
                                let id = rec.record("serve.request", due, done, SpanId::NONE, req);
                                rec.record("serve.send_lag", due, sent, id, req);
                                rec.record("serve.client_call", sent, done, id, req);
                                load.traced_us.push(lat);
                            } else {
                                load.untraced_us.push(lat);
                                load.untraced += done - due;
                            }
                        }
                    }
                    load
                })
            })
            .collect();
        for w in workers {
            total.merge(w.join().expect("load generator thread panicked"));
        }
    });
    total
}

/// Sleeps until shortly before `due`, then spins. A sleeping thread on a
/// virtualised host wakes tens to hundreds of µs late, and that jitter
/// would land in every request's latency; the spin costs a fraction of a
/// core at this benchmark's rates.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
}

/// Quantile of the server's latency histogram, interpolated linearly
/// inside the bucket that holds it (buckets are `(upper bound, count)`).
pub fn histogram_quantile(buckets: &[(f64, u64)], q: f64) -> f64 {
    let total: u64 = buckets.iter().map(|b| b.1).sum();
    if total == 0 {
        return 0.0;
    }
    let target = q * total as f64;
    let (mut cum, mut lo) = (0.0, 0.0);
    for &(hi, n) in buckets {
        let n = n as f64;
        if n > 0.0 && cum + n >= target {
            let hi = if hi.is_finite() { hi } else { lo * 2.0 };
            return lo + (hi - lo) * (target - cum) / n;
        }
        cum += n;
        lo = hi;
    }
    lo
}

/// Records the end-to-end serving metrics of an untraced run.
pub fn e2e_metrics(load: &Load, e2e: &mut Metrics, extra: &mut Metrics) {
    let seconds = load.wall_s;
    e2e.set("qps", load.points_answered as f64 / seconds, "queries/s");
    extra.set("call_p50_ms", median(&load.lat_us) / 1e3, "ms");
    let mut order: Vec<usize> = (0..load.lat_us.len()).collect();
    order.sort_by(|&a, &b| load.due_s[a].total_cmp(&load.due_s[b]));
    let in_time_order: Vec<f64> = order.iter().map(|&i| load.lat_us[i]).collect();
    extra.set(
        "call_p99_ms",
        block_quantile(&in_time_order, P99_BLOCK, 0.99) / 1e3,
        "ms",
    );
    e2e.set("goodput_rps", load.good as f64 / seconds, "req/s");
    extra.set("requests", load.attempted as f64, "count");
}

/// The `serve.*` layer metrics: protocol encode/decode on the workload's
/// frames in memory, in-process execution of the same payloads under the
/// server's policy, Ping round trips for the wire, and the server's own
/// Stats frame. `load` is the open loop just run against `server`.
pub fn serve_layers(
    rec: &Recorder,
    server: &LiveServer,
    clf: &Classifier,
    payloads: &[Arc<Matrix>],
    refs: &[Vec<Label>],
    load: &Load,
    out: &mut Metrics,
) -> adapter::Result<()> {
    let frames = payloads.len().min(FRAMES);
    let (mut enc, mut dec, mut exec) = (Vec::new(), Vec::new(), Vec::new());
    rec.time("serve.codec", SpanId::NONE, |_| -> adapter::Result<()> {
        for p in 0..frames {
            let req = adapter::classify_request(&payloads[p]);
            let resp = adapter::labels_response(&refs[p]);
            let (mut req_frame, mut resp_frame) = (Vec::new(), Vec::new());
            let t = Instant::now();
            adapter::encode_request(&req, &mut req_frame)?;
            let t_req = t.elapsed();
            let t = Instant::now();
            adapter::encode_response(&resp, &mut resp_frame)?;
            enc.push((t_req + t.elapsed()).as_secs_f64() * 1e6);
            let t = Instant::now();
            black_box(adapter::decode_request(&req_frame)?);
            let t_req = t.elapsed();
            let t = Instant::now();
            black_box(adapter::decode_response(&resp_frame)?);
            dec.push((t_req + t.elapsed()).as_secs_f64() * 1e6);
        }
        Ok(())
    })
    .0?;
    rec.time("serve.exec", SpanId::NONE, |_| {
        for p in payloads.iter().take(frames) {
            let t = Instant::now();
            black_box(
                adapter::classify_batch(clf, p.clone(), adapter::parallel(SERVER_THREADS)).ok(),
            );
            exec.push(t.elapsed().as_secs_f64() * 1e6);
        }
    });
    // Before the pings, so the server's histogram holds Classify requests.
    let stats = server.stats()?;
    let mut wire = Vec::with_capacity(PINGS);
    let mut client = adapter::connect(&server.addr, TIMEOUT)?;
    rec.time("serve.pings", SpanId::NONE, |_| -> adapter::Result<()> {
        for _ in 0..PINGS {
            let t = Instant::now();
            adapter::remote_ping(&mut client)?;
            wire.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(())
    })
    .0?;
    let (enc, dec, exec) = (median(&enc), median(&dec), median(&exec));
    out.set("serve.encode_us", enc, "us");
    out.set("serve.decode_us", dec, "us");
    out.set("serve.exec_us_p50", exec, "us");
    out.set("serve.wire_us_p50", median(&wire), "us");
    out.set("serve.wire_us_p99", quantile(&wire, 0.99), "us");
    out.set(
        "serve.unattributed_us",
        median(&load.lat_us) - enc - exec - dec,
        "us",
    );
    out.set("serve.send_lag_us_p99", quantile(&load.lag_us, 0.99), "us");
    out.set(
        "serve.server_p50_us",
        histogram_quantile(&stats.latency_buckets, 0.5),
        "us",
    );
    out.set(
        "serve.rejected",
        stats.rejected_over_capacity as f64,
        "count",
    );
    out.set("serve.timeouts", stats.timeouts as f64, "count");
    Ok(())
}

/// Folds an open loop's failures into the run's answer checks.
pub fn check_load(load: &Load, ledger: &mut Ledger) {
    ledger.add("served_labels_match_in_process", load.attempted, load.wrong);
    ledger.add("requests_answered", load.attempted, load.errors);
}

/// Training rows of the `serve_d2` model.
const TRAIN_ROWS: usize = 1_000_000;
/// Distinct request payloads; the open loop cycles through them.
const PAYLOADS: usize = 512;
/// Offered rate over all connections, req/s.
const RATE: f64 = 500.0;
/// A request answered later than this after its due time misses goodput.
const LIMIT_US: f64 = 5000.0;
/// Queries per class checked against exact densities.
const CHECK_PER_CLASS: usize = 40;
/// Open loop run before the measured one, so connections, handler
/// threads and the pool are up.
const WARMUP_SECONDS: f64 = 0.5;

/// Set-up timings of the serve workload, one entry per repetition.
#[derive(Default)]
struct Setup {
    total: Vec<f64>,
    fit: Vec<f64>,
    save: Vec<f64>,
    load: Vec<f64>,
    bytes: usize,
}

/// The `serve_d2` workload: a full d = 2 model (grid on) fitted on 1M
/// rows, saved and loaded through `model_io`, served in-process on
/// loopback, and driven open-loop at `RATE` over `nproc` connections.
pub fn run(run: Run, rec: &Recorder) -> adapter::Result<Outcome> {
    let threads = fit_threads();
    let mut o = Outcome {
        threads: threads.max(SERVER_THREADS),
        ..Outcome::default()
    };
    let train = training_rows(TRAIN_ROWS, 2, run.seed);
    let params = adapter::params(true);
    let policy = adapter::parallel(threads);
    let mut setup = Setup::default();
    let mut kept: Option<(Classifier, LiveServer)> = None;
    for _ in 0..SETUP_REPS {
        if let Some((clf, server)) = kept.take() {
            server.stop()?;
            drop(clf);
        }
        let t = Instant::now();
        let (clf, dt) = rec.time("classifier.fit", SpanId::NONE, |_| {
            adapter::fit(&train, &params, policy)
        });
        setup.fit.push(dt.as_secs_f64());
        let clf = clf?;
        let mut saved = Vec::new();
        let (r, dt) = rec.time("model_io.save", SpanId::NONE, |_| {
            adapter::save(&clf, &mut saved)
        });
        r?;
        setup.save.push(dt.as_secs_f64());
        let (loaded, dt) = rec.time("model_io.load", SpanId::NONE, |_| adapter::load(&saved));
        setup.load.push(dt.as_secs_f64());
        setup.bytes = saved.len();
        drop(saved);
        let server = LiveServer::start(rec, loaded?)?;
        setup.total.push(t.elapsed().as_secs_f64());
        kept = Some((clf, server));
    }
    let (clf, server) = kept.expect("SETUP_REPS > 0");
    o.e2e.set("setup_s", median(&setup.total), "s");
    let measured = serve_and_measure(run, rec, &train, &params, &clf, &server, &setup, &mut o);
    let stopped = server.stop();
    measured?;
    stopped?;
    Ok(o)
}

/// Everything after set-up, while the server is up.
#[allow(clippy::too_many_arguments)]
fn serve_and_measure(
    run: Run,
    rec: &Recorder,
    train: &Matrix,
    params: &adapter::Params,
    clf: &Classifier,
    server: &LiveServer,
    setup: &Setup,
    o: &mut Outcome,
) -> adapter::Result<()> {
    let threads = fit_threads();
    let mix = Mix {
        total: REQ_POINTS * PAYLOADS,
        outlier_share: 0.05,
        outlier_radius: 6.0,
        shell_share: 0.05,
    };
    let qs = QuerySet::generate(2, mix, adapter::threshold(clf), run.seed);
    o.query_seed = qs.seed;
    o.query_counts = qs.counts;
    let payloads = requests(&qs, PAYLOADS);
    let reference = workload::reference_pass(rec, clf, &payloads, threads);
    o.checks
        .add("reference_calls_answered", payloads.len(), reference.errors);
    let labels = workload::flat_labels(&reference);
    let wrong = workload::check_answers(
        rec,
        &mut o.checks,
        clf,
        &qs,
        &labels,
        CHECK_PER_CLASS,
        false,
        |x| adapter::exact_density(clf, x),
    );
    workload::label_quality(&qs, &labels, &mut o.e2e, &mut o.extra);
    // A payload holding a label the exact check rejected has no valid
    // reference: every request carrying it counts as answered wrongly.
    let mut refs = reference.labels.clone();
    for i in wrong {
        refs[i / REQ_POINTS].clear();
    }

    let conns = nproc();
    let idle = Recorder::new(false);
    open_loop(
        &idle,
        &server.addr,
        &payloads,
        &refs,
        RATE,
        conns,
        WARMUP_SECONDS,
        LIMIT_US,
    );
    let load = open_loop(
        rec,
        &server.addr,
        &payloads,
        &refs,
        RATE,
        conns,
        run.seconds,
        LIMIT_US,
    );
    check_load(&load, &mut o.checks);
    o.attempted = load.attempted;
    o.failed = load.errors + load.wrong;
    o.untraced = load.untraced;
    e2e_metrics(&load, &mut o.e2e, &mut o.extra);
    if !run.trace {
        return Ok(());
    }
    o.layers.set(
        "trace.overhead",
        ratio(median(&load.traced_us), median(&load.untraced_us)) - 1.0,
        "ratio",
    );
    serve_layers(rec, server, clf, &payloads, &refs, &load, &mut o.layers)?;
    let ctx = Ctx {
        rec,
        threads,
        train,
        params,
        clf,
        qs: &qs,
        calls: &payloads,
        stats: reference.stats,
    };
    let out = &mut o.layers;
    layers::fit(&ctx, median(&setup.fit), None, out)?;
    let (query_ns, cheapest) = layers::bound(&ctx, out);
    layers::kernel(&ctx, query_ns, out);
    layers::engine(&ctx, cheapest, out)?;
    layers::coreset_probe(&ctx, out)?;
    layers::model_io_metrics(median(&setup.save), median(&setup.load), setup.bytes, out);
    Ok(())
}
