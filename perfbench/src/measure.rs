//! The measurement protocol of one process: one workload, either the
//! untraced end-to-end reps (`--trace 0`) or the traced attribution
//! pass (`--trace 1`), the output checks, and the run record.

use crate::json::Value;
use crate::manifest::{self, Clock, END_TO_END, PER_LAYER};
use crate::stats::{median, min_max, percentile};
use crate::trace::{self_times, Tracer};
use crate::workloads::{Exec, Outcome, Shape, Sim, Workload};
use crate::{probes, Args};
use eqc_core::{EqcError, SimParallelism};
use std::collections::BTreeMap;
use std::time::Instant;

/// Threads the benchmark may use: `min(nproc, 4)` pool workers or
/// pipeline lanes, and nothing else.
pub fn lanes() -> usize {
    nproc().min(4)
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// `VmHWM` of this process in MB (Linux; 0 elsewhere fails the
/// every-metric-is-positive check rather than inventing a number).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// What one process measured; `metrics` holds exactly the metric set
/// its trace mode owes the driver.
pub struct Measured {
    pub attempted: usize,
    pub failed: usize,
    /// Every output check passed and every metric is finite.
    pub correct: bool,
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    /// Raw per-rep samples by series name.
    pub samples: Vec<(&'static str, Vec<f64>)>,
    pub digest: u64,
    pub notes: Vec<String>,
}

/// One set-up + timed call; `Err` counts every tenant as failed.
fn rep(w: &Workload, exec: Exec) -> Result<(f64, Outcome), EqcError> {
    let start = Instant::now();
    let prepared = w.setup(None)?;
    let setup_s = start.elapsed().as_secs_f64();
    Ok((setup_s, w.run(prepared, exec, None)?))
}

fn default_exec(w: &Workload) -> Exec {
    match w.shape {
        Shape::Single { pooled: true } => Exec::Pooled,
        _ => Exec::Des,
    }
}

/// The simulated results two runs of the same inputs must share. Pool
/// and engine counters describe machinery and may differ by executor.
fn same_results(a: &Sim, b: &Sim) -> bool {
    a.digest == b.digest
        && a.circuits == b.circuits
        && a.tasks == b.tasks
        && a.loss_gap.to_bits() == b.loss_gap.to_bits()
        && a.turnaround_h == b.turnaround_h
}

/// `--trace 0`: a reduced-scale warm-up, then timed reps until
/// `seconds` of measured time (at least three), then spare set-ups so
/// `setup_s` is a median over many samples.
pub fn end_to_end(args: &Args) -> Result<Measured, String> {
    let lanes = lanes();
    let build = |quick| {
        Workload::build(&args.workload, args.seed, quick, lanes)
            .ok_or_else(|| format!("unknown workload {:?}", args.workload))
    };
    let w = build(args.quick)?;
    let exec = default_exec(&w);
    let mut notes = Vec::new();
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut reference: Option<Sim> = None;
    let mut judge = |result: Result<Sim, EqcError>, what: &str, notes: &mut Vec<String>| {
        attempted += w.tenants();
        match result {
            Err(e) => {
                failed += w.tenants();
                notes.push(format!("{what}: {e}"));
            }
            Ok(sim) => {
                failed += sim.failed;
                match &reference {
                    Some(r) if !same_results(r, &sim) => {
                        failed += w.tenants() - sim.failed;
                        notes.push(format!(
                            "{what}: digest {:016x} != {:016x}",
                            sim.digest, r.digest
                        ));
                    }
                    Some(_) => {}
                    None => reference = Some(sim),
                }
            }
        }
    };

    if !args.quick {
        // Touch every code path and warm the allocator at a tenth of
        // the epochs; results are discarded.
        rep(&build(true)?, exec).map_err(|e| format!("warm-up failed: {e}"))?;
    }
    if exec == Exec::Pooled {
        // The pool must replay the DES report byte for byte.
        judge(
            rep(&w, Exec::Des).map(|(_, o)| o.sim),
            "des reference",
            &mut notes,
        );
    }
    let (mut setup, mut wall) = (Vec::new(), Vec::new());
    let min_reps = if args.quick { 1 } else { 3 };
    while wall.len() < min_reps || (!args.quick && wall.iter().sum::<f64>() < args.seconds) {
        match rep(&w, exec) {
            Ok((s, o)) => {
                setup.push(s);
                wall.push(o.wall_s);
                judge(Ok(o.sim), "rep", &mut notes);
            }
            Err(e) => {
                // The inputs are fixed, so the error would repeat.
                judge(Err(e), "rep", &mut notes);
                break;
            }
        }
    }
    let spare_start = Instant::now();
    while !setup.is_empty() && setup.len() < 100 && spare_start.elapsed().as_secs_f64() < 1.5 {
        let start = Instant::now();
        match w.setup(None) {
            Ok(_prepared) => setup.push(start.elapsed().as_secs_f64()),
            Err(e) => {
                notes.push(format!("spare set-up: {e}"));
                break;
            }
        }
    }

    let sim = reference.ok_or("no rep completed")?;
    if wall.is_empty() {
        return Err(format!("no timed rep completed: {notes:?}"));
    }
    let wall_s = median(&wall);
    let value = |name: &str| match name {
        "wall_s" => wall_s,
        "setup_s" => median(&setup),
        "circuits_per_s" => sim.circuits as f64 / wall_s,
        "peak_rss_mb" => peak_rss_mb(),
        "epochs_per_virtual_hour" => sim.epochs_per_virtual_hour,
        "loss_gap" => sim.loss_gap,
        "turnaround_virtual_h_p50" => percentile(&sim.turnaround_h, 0.5),
        "turnaround_virtual_h_p80" => percentile(&sim.turnaround_h, 0.8),
        "slo_hit_share" => sim.slo_hit_share,
        other => unreachable!("end-to-end metric {other} has no source"),
    };
    let metrics: Vec<_> = END_TO_END
        .iter()
        .map(|m| (m.name, value(m.name), m.unit))
        .collect();
    // Every end-to-end metric is strictly positive on every workload.
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite() && *v > 0.0);
    if !finite {
        notes.push("a metric is missing, non-finite or zero".into());
    }
    Ok(Measured {
        attempted,
        failed,
        correct: failed == 0 && finite,
        metrics,
        samples: vec![("wall_s", wall), ("setup_s", setup)],
        digest: sim.digest,
        notes,
    })
}

/// One traced rep: spans around set-up and the timed call.
fn traced_rep(w: &Workload, exec: Exec, tracer: &mut Tracer) -> Result<Outcome, EqcError> {
    tracer.next_rep();
    let prepared = w.setup(Some(tracer))?;
    w.run(prepared, exec, Some(tracer))
}

/// `--trace 1`: untraced reference reps, one traced rep whose results
/// must equal theirs, the replay probes, and every per-layer metric.
pub fn per_layer(args: &Args) -> Result<Measured, String> {
    let lanes = lanes();
    let w = Workload::build(&args.workload, args.seed, args.quick, lanes)
        .ok_or_else(|| format!("unknown workload {:?}", args.workload))?;
    let exec = default_exec(&w);
    let fail = |what: &str, e: EqcError| format!("{what}: {e}");
    let mut notes = Vec::new();
    let mut m: BTreeMap<&'static str, f64> = BTreeMap::new();

    // Untraced reference: the executor the traced rep will mirror.
    let mirrored = if exec == Exec::Pooled {
        Exec::Des
    } else {
        exec
    };
    let mut untraced_wall = Vec::new();
    let mut reference = None;
    for _ in 0..if args.quick { 1 } else { 2 } {
        let (_, o) = rep(&w, mirrored).map_err(|e| fail("untraced rep", e))?;
        untraced_wall.push(o.wall_s);
        reference = Some(o.sim);
    }
    let reference = reference.expect("at least one untraced rep");
    let untraced_wall_s = median(&untraced_wall);

    let mut tracer = Tracer::new();
    let traced = traced_rep(&w, mirrored, &mut tracer).map_err(|e| fail("traced rep", e))?;
    let mut failed = traced.sim.failed;
    if !same_results(&reference, &traced.sim) {
        failed = w.tenants();
        notes.push(format!(
            "tracing changed the results: digest {:016x} != {:016x}",
            traced.sim.digest, reference.digest
        ));
    }
    let mut attempted = w.tenants();
    let mut counters = traced.sim.counters.clone();

    if exec == Exec::Pooled {
        // The pool's loop is crate-private, so the spans above come from
        // the DES replay of the same session (the serial master loop the
        // pool cannot hide); the pool itself is timed untraced.
        let mut pooled_wall = Vec::new();
        for _ in 0..if args.quick { 1 } else { 2 } {
            let (_, o) = rep(&w, Exec::Pooled).map_err(|e| fail("pooled rep", e))?;
            attempted += w.tenants();
            if !same_results(&reference, &o.sim) {
                failed += w.tenants();
                notes.push("pooled report differs from DES".into());
            }
            pooled_wall.push(o.wall_s);
            counters.extend(o.sim.counters);
        }
        let speedup = untraced_wall_s / median(&pooled_wall);
        m.insert("core.pool.speedup", speedup);
        m.insert(
            "core.pool.efficiency",
            speedup / counters["core.pool.workers"],
        );
    }
    if let SimParallelism::Pipeline { lanes: n } = w.cfg.sim_parallelism {
        if n > 1 {
            // One extra rep with the pipeline inline on one lane.
            let one = Workload::build(&args.workload, args.seed, args.quick, 1).expect("known");
            let o = traced_rep(&one, Exec::Des, &mut Tracer::new())
                .map_err(|e| fail("one-lane rep", e))?;
            attempted += w.tenants();
            if !same_results(&reference, &o.sim) {
                failed += w.tenants();
                notes.push("one-lane report differs from multi-lane".into());
            }
            m.insert("qsim.pipeline.speedup", o.wall_s / traced.wall_s);
        }
    }

    // Spans: every span below the root is a leaf, so duration == self.
    let selfs = self_times(tracer.spans());
    let total = |name: &str| selfs.get(name).map_or((0.0, 0.0), |&(s, n)| (s, n as f64));
    for (span, secs, count) in [
        ("core.session", "core.session_s", None),
        ("core.pick", "core.pick_s", Some("core.picks")),
        ("core.assign", "core.assign_s", Some("core.assigns")),
        (
            "core.client_task",
            "core.client_task_s",
            Some("core.client_tasks"),
        ),
        ("core.absorb", "core.absorb_s", Some("core.absorbs")),
        ("core.finish", "core.finish_s", None),
        ("core.fleet.admit", "core.fleet.admit_s", None),
        ("core.fleet.run", "core.fleet.run_s", None),
        ("core.service.admit", "core.service.admit_s", None),
        ("core.service.close", "core.service.close_s", None),
    ] {
        let (s, n) = total(span);
        m.insert(secs, s);
        if let Some(count) = count {
            m.insert(count, n);
        }
    }
    m.insert("trace.spans", tracer.spans().len() as f64);
    m.insert(
        "trace.overhead_share",
        traced.wall_s / untraced_wall_s - 1.0,
    );

    let p = probes::run(&w);
    let sim = &traced.sim;
    let (circuits, tasks) = (sim.circuits as f64, sim.tasks as f64);
    let clients = counters["core.clients"];
    m.insert(
        "transpile.calls",
        clients * w.problem.templates().len() as f64,
    );
    // The scheduler is consulted while priming (once per client);
    // post-absorb dispatches have one candidate and bypass it.
    m.insert("policy.scheduler.picks", clients);
    m.insert("vqa.tasks", tasks);
    if matches!(w.shape, Shape::Single { .. }) {
        let (root_self, _) = total("core.run");
        m.insert("trace.attributed_share", 1.0 - root_self / traced.wall_s);
        let (compiles, hits) = (
            counters["qdevice.compiles"],
            counters["qdevice.compile_cache_hits"],
        );
        m.insert(
            "qdevice.compile_hit_ratio",
            hits / (compiles + hits).max(1.0),
        );
    } else {
        // The fleet API does not expose its clients, so compile and
        // noise-build counts are derived: every job lands on a fresh
        // drift factor (measured on the single-tenant workloads), so
        // each task rebuilds once per template in its batch.
        m.insert("qdevice.compiles", tasks);
        m.insert("qdevice.noise_builds", tasks);
        let us = 1e-6;
        let attributed = us
            * (tasks * p["qdevice.execute_us"]
                + circuits * p["vqa.slice_loss_us"]
                + counters["qdevice.queue.jobs"] * p["qdevice.queue.book_us"]
                + counters["core.fleet.snapshot_rebuilds"] * p["qdevice.queue.read_us"]
                + counters["core.fleet.grant_rounds"] * p["policy.arbiter.allocate_us"]
                + clients * p["policy.scheduler.pick_us"]);
        m.insert("trace.attributed_share", attributed / traced.wall_s);
        m.insert(
            "core.fleet.unattributed_s",
            (traced.wall_s - attributed).max(0.0),
        );
    }
    m.extend(counters);
    m.extend(p);

    let metrics: Vec<_> = PER_LAYER
        .iter()
        .map(|d| (d.name, m.get(d.name).copied().unwrap_or(0.0), d.unit))
        .collect();
    let finite = metrics.iter().all(|(_, v, _)| v.is_finite());
    if !finite {
        notes.push("a per-layer metric is non-finite".into());
    }
    let path = args.out.join(format!("{}.trace.jsonl", w.name));
    std::fs::create_dir_all(&args.out)
        .and_then(|()| tracer.write_jsonl(&path))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    Ok(Measured {
        attempted,
        failed,
        correct: failed == 0 && finite,
        metrics,
        samples: vec![
            ("untraced_wall_s", untraced_wall),
            ("traced_wall_s", vec![traced.wall_s]),
        ],
        digest: traced.sim.digest,
        notes,
    })
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`.
pub fn result_line(r: &Measured) -> String {
    Value::obj([
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics_value(r)),
    ])
    .encode()
}

fn metrics_value(r: &Measured) -> Value {
    Value::obj(r.metrics.iter().map(|&(name, value, unit)| {
        (
            name,
            Value::obj([("value", Value::Num(value)), ("unit", Value::str(unit))]),
        )
    }))
}

/// The run record appended to `<out>/<workload>.jsonl`: the result
/// plus host, toolchain, commit, reps and every raw sample.
pub fn run_record(args: &Args, r: &Measured) -> Value {
    let tool = |program: &str, argv: &[&str]| {
        std::process::Command::new(program)
            .args(argv)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
    };
    let reps = r.samples.first().map_or(0, |(_, v)| v.len());
    Value::obj([
        ("workload", Value::str(&args.workload)),
        ("seed", Value::Num(args.seed as f64)),
        ("trace", Value::Num(f64::from(u8::from(args.trace)))),
        ("quick", Value::Bool(args.quick)),
        ("seconds", Value::Num(args.seconds)),
        ("nproc", Value::Num(nproc() as f64)),
        ("lanes", Value::Num(lanes() as f64)),
        ("rustc", Value::str(tool("rustc", &["--version"]))),
        ("commit", Value::str(tool("git", &["rev-parse", "HEAD"]))),
        ("reps", Value::Num(reps as f64)),
        ("digest", Value::str(format!("{:016x}", r.digest))),
        ("correct", Value::Bool(r.correct)),
        ("attempted", Value::Num(r.attempted as f64)),
        ("failed", Value::Num(r.failed as f64)),
        ("metrics", metrics_value(r)),
        (
            "samples",
            Value::obj(r.samples.iter().map(|(name, v)| (*name, Value::nums(v)))),
        ),
        (
            "notes",
            Value::Arr(r.notes.iter().map(Value::str).collect()),
        ),
    ])
}

/// Human-readable table on stderr-free stdout lines above the result
/// line: every metric by name with its unit; host-time series with
/// min, max and n (too few samples for a tail percentile).
pub fn print_table(args: &Args, r: &Measured) {
    println!(
        "# {} seed={} trace={} nproc={} lanes={}{}",
        args.workload,
        args.seed,
        u8::from(args.trace),
        nproc(),
        lanes(),
        if args.quick {
            " (quick: not a baseline)"
        } else {
            ""
        }
    );
    for &(name, value, unit) in &r.metrics {
        let gloss = manifest::end_to_end(name).map_or(String::new(), |m| {
            let clock = match m.clock {
                Clock::Host => "host",
                Clock::Simulated => "simulated",
            };
            format!("  [{clock}] {}", m.meaning)
        });
        println!("{name:<34} {value:>18.6} {unit}{gloss}");
    }
    for (name, v) in &r.samples {
        let (lo, hi) = min_max(v);
        println!(
            "{name:<34} median {:.6} min {lo:.6} max {hi:.6} n={} (median only: too few samples for a tail percentile)",
            median(v),
            v.len()
        );
    }
    for note in &r.notes {
        println!("! {note}");
    }
}
