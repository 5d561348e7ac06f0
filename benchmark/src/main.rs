//! The DLFS benchmark. See README.md beside this package.
//!
//! ```text
//! dlfs-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload, as many rounds as fit in <s> host seconds; the last
//!     line of stdout is the result object of the benchmark contract
//! dlfs-benchmark suite [seed=N] [trace=0|1] [only=<name>]
//!     all eight workloads, one round each: every metric as
//!     `name unit value`, shape assertions, model fingerprint
//! dlfs-benchmark spec
//!     BENCHMARK.json, generated from the metric catalogue
//! ```

mod alloc;
mod metrics;
mod model;
mod replay;
mod rig;
mod spans;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

use metrics::{HostCost, END_TO_END, PER_LAYER};
use rig::{sub_seed, Pass};
use workloads::{Workload, WORKLOADS};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

const DEFAULT_SEED: u64 = 20190923;
const RUN_SECONDS: u64 = 10;

/// Keep the whole process on the CPU it is running on. The simulator hands
/// one OS thread per task back and forth and only one is ever runnable;
/// left to the scheduler those hand-offs bounce between cores, which on a
/// 2-core box made the same epoch take anywhere from 3 s to 10 s. Pinned,
/// it takes 3 s every time. Virtual-time results do not depend on this.
#[cfg(target_os = "linux")]
fn pin_to_current_cpu() {
    extern "C" {
        fn sched_getcpu() -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    // SAFETY: `sched_getcpu` takes no arguments and only reads scheduler
    // state.
    let cpu = unsafe { sched_getcpu() };
    if !(0..1024).contains(&cpu) {
        return;
    }
    let mut mask = [0u64; 16];
    mask[cpu as usize / 64] = 1 << (cpu % 64);
    // SAFETY: `mask` is a live 128-byte buffer and the size passed is its
    // size; pid 0 is the calling thread, and threads spawned later inherit
    // its mask. Failure (a restricted cpuset) is harmless and ignored.
    unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
}

#[cfg(not(target_os = "linux"))]
fn pin_to_current_cpu() {}

/// The workload-shape assertions: a workload that silently stops
/// stressing its layer is worse than one that fails loudly.
fn check_shape(name: &str, p: &Pass) -> Result<(), String> {
    let sh = metrics::shape(p);
    let extra = |k: &str| p.extras.iter().find(|e| e.0 == k).map_or(0.0, |e| e.1);
    let violated = match name {
        "imdb_local" => (sh.blocksim_util >= 0.8).then(|| {
            format!(
                "blocksim.util {} must stay < 0.8 (client-CPU-bound)",
                sh.blocksim_util
            )
        }),
        "imagenet_disagg" => (sh.nic_util <= 0.95).then(|| {
            format!(
                "fabric.nic_util {} must exceed 0.95 (wire-bound)",
                sh.nic_util
            )
        }),
        "cache_reuse" => {
            let hit = sh.cache_hit_ratio;
            (hit <= 0.2 || hit >= 0.5 || p.window.copy_ops != 0).then(|| {
                format!(
                    "cache.hit_ratio {hit} must lie in (0.2, 0.5) and copy.memcpy_ops {} must be 0",
                    p.window.copy_ops
                )
            })
        }
        // The node dies in the warm-up epoch and is Dead (never routed to)
        // by the time the window opens, so the failovers are counted from
        // the end of set-up.
        "degraded_rebuild" => (p.job.counter("dlfs.integrity.failovers") == 0).then(|| {
            "integrity.failovers must be > 0 between set-up and the end of the window".to_string()
        }),
        "tenants_wfq" => {
            let err = extra("tenant.fair_share_err");
            (err > 0.05)
                .then(|| format!("tenant.fair_share_err {err} exceeds the 5% fairness budget"))
        }
        _ => None,
    };
    match violated {
        None => Ok(()),
        Some(what) => Err(format!("{name}: workload-shape assertion violated: {what}")),
    }
}

/// One round of one workload: the untraced pass, and after it (when
/// `traced`) the traced pass with its per-layer ledger.
struct Round {
    e2e: [f64; 7],
    requests: usize,
    attempted: u64,
    failed: u64,
    mismatches: u64,
    host: HostCost,
    delivered: u64,
    layers: Option<BTreeMap<&'static str, f64>>,
    spans: Vec<spans::Span>,
}

fn run_round(w: &Workload, seed: u64, traced: bool) -> Result<Round, String> {
    let u = (w.run)(seed, false);
    check_shape(w.name, &u)?;
    if u.log.lat_ns.len() < 1024 {
        return Err(format!(
            "{}: only {} measured requests (p99 needs 1024)",
            w.name,
            u.log.lat_ns.len()
        ));
    }
    let mut round = Round {
        e2e: metrics::end_to_end(&u),
        requests: u.log.lat_ns.len(),
        attempted: u.log.attempted,
        failed: u.log.failed,
        mismatches: u.log.mismatches,
        host: HostCost {
            window_s: u.window.host_s,
            allocs: u.window.allocs,
        },
        delivered: u.log.samples,
        layers: None,
        spans: Vec::new(),
    };
    drop(u);
    if traced {
        let mut t = (w.run)(seed, true);
        // Spans advance no virtual clock, so the traced pass must land on
        // the same bits.
        let again = metrics::end_to_end(&t);
        if again.map(f64::to_bits) != round.e2e.map(f64::to_bits) {
            return Err(format!(
                "{}: traced pass diverged from the untraced one: {:?} vs {:?}",
                w.name, again, round.e2e
            ));
        }
        round.layers = Some(metrics::ledger(w.name, seed, &t, &round.host));
        round.spans = std::mem::take(&mut t.log.spans);
    }
    Ok(round)
}

fn median(mut v: Vec<f64>) -> f64 {
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

fn out_dir() -> PathBuf {
    std::env::var_os("DLFS_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn write_out(file: &str, text: &str) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let path = dir.join(file);
    std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
}

/// The result object of the benchmark contract.
fn result_json(correct: bool, attempted: u64, failed: u64, values: &[(&str, &str, f64)]) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit, v)) in values.iter().enumerate() {
        assert!(v.is_finite(), "{name} is not a finite number");
        let sep = if i == 0 { "" } else { ", " };
        write!(
            s,
            "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        )
        .expect("write");
    }
    s.push_str("}}");
    s
}

/// `--workload W --seed N --seconds S --trace T`: rounds until the host
/// budget is used, each with its own seed; every metric is the median
/// over the rounds.
fn driver(args: &[String]) -> Result<(), String> {
    let mut opt: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [k, v] if k.starts_with("--") => opt.insert(&k[2..], v.as_str()),
            _ => return Err(format!("expected --key value pairs, got {pair:?}")),
        };
    }
    let get = |k: &str| opt.get(k).copied().ok_or(format!("missing --{k}"));
    let name = get("workload")?;
    let w = WORKLOADS
        .iter()
        .find(|w| w.name == name)
        .ok_or(format!("unknown workload {name}"))?;
    let seed: u64 = get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let traced = match get("trace")? {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other}")),
    };
    if model::fingerprint() != model::PINNED_FINGERPRINT {
        return Err(fingerprint_error());
    }

    let budget = Duration::from_secs_f64(seconds.max(0.0));
    let start = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    loop {
        // Round 0 runs the seed itself, so a one-round run is the suite's
        // run of that seed.
        let r = rounds.len() as u64;
        let round_seed = if r == 0 {
            seed
        } else {
            sub_seed(seed, 0xB0 + r)
        };
        rounds.push(run_round(w, round_seed, traced)?);
        let spent = start.elapsed();
        if spent + spent / rounds.len() as u32 > budget {
            break;
        }
    }
    eprintln!(
        "{name}: {} round(s) in {:.1} s",
        rounds.len(),
        start.elapsed().as_secs_f64()
    );

    let values: Vec<(&str, &str, f64)> = if traced {
        PER_LAYER
            .iter()
            .map(|&(n, unit, _)| {
                let per_round = rounds
                    .iter()
                    .map(|r| r.layers.as_ref().expect("traced round")[n])
                    .collect();
                (n, unit, median(per_round))
            })
            .collect()
    } else {
        END_TO_END
            .iter()
            .enumerate()
            .map(|(i, &(n, unit, ..))| (n, unit, median(rounds.iter().map(|r| r.e2e[i]).collect())))
            .collect()
    };
    if traced {
        let last = rounds.last().expect("at least one round");
        write_out(
            &format!("{name}.trace.json"),
            &spans::chrome_trace(name, &last.spans),
        )?;
    }
    println!(
        "{}",
        result_json(
            rounds.iter().all(|r| r.mismatches == 0),
            rounds.iter().map(|r| r.attempted).sum(),
            rounds.iter().map(|r| r.failed).sum(),
            &values,
        )
    );
    Ok(())
}

fn fingerprint_error() -> String {
    format!(
        "model_fingerprint {:#018x} differs from the pinned {:#018x}: the hardware \
         model or a DLFS cost constant changed. Recalibration is its own change: \
         update benchmark/src/model.rs and re-measure the baseline.",
        model::fingerprint(),
        model::PINNED_FINGERPRINT
    )
}

/// `suite [seed=N] [trace=0|1] [only=<workload>]`.
fn suite(args: &[String]) -> Result<(), String> {
    let arg = |key: &str| {
        args.iter()
            .find_map(|a| a.strip_prefix(key)?.strip_prefix('='))
    };
    let seed: u64 = match arg("seed") {
        Some(v) => v.parse().map_err(|e| format!("seed=: {e}"))?,
        None => DEFAULT_SEED,
    };
    let traced = arg("trace") != Some("0");
    let only = arg("only");

    println!(
        "# DLFS benchmark suite, seed={seed}, trace={}",
        traced as u8
    );
    println!("model_fingerprint {:#018x}", model::fingerprint());
    let mut problems: Vec<String> = Vec::new();
    if model::fingerprint() != model::PINNED_FINGERPRINT {
        problems.push(fingerprint_error());
    }
    let start = Instant::now();
    for w in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|o| o == w.name))
    {
        let t0 = Instant::now();
        println!(
            "\n== {} ({} closed-loop client{})\n#  {}",
            w.name,
            w.clients,
            if w.clients == 1 { "" } else { "s" },
            w.why
        );
        let r = match run_round(w, seed, traced) {
            Ok(r) => r,
            Err(e) => {
                println!("FAILED {e}");
                problems.push(e);
                continue;
            }
        };
        let e2e: Vec<(&str, &str, f64)> = END_TO_END
            .iter()
            .zip(r.e2e)
            .map(|(&(n, unit, ..), v)| (n, unit, v))
            .collect();
        for (n, unit, v) in &e2e {
            let note = if n.starts_with("request_") {
                format!(" n={}", r.requests)
            } else {
                String::new()
            };
            println!("e2e {} {n} {unit} {v}{note}", w.name);
        }
        println!(
            "ops {} attempted {} failed {} byte_mismatches {}",
            w.name, r.attempted, r.failed, r.mismatches
        );
        if r.failed > 0 || r.mismatches > 0 {
            problems.push(format!(
                "{}: {} failed operations, {} byte mismatches",
                w.name, r.failed, r.mismatches
            ));
        }
        write_out(
            &format!("{}.end_to_end.json", w.name),
            &(result_json(r.mismatches == 0, r.attempted, r.failed, &e2e) + "\n"),
        )?;
        match &r.layers {
            Some(layers) => {
                let rows: Vec<(&str, &str, f64)> = PER_LAYER
                    .iter()
                    .map(|&(n, unit, _)| (n, unit, layers[n]))
                    .collect();
                for (n, unit, v) in &rows {
                    println!("layer {} {n} {unit} {v}", w.name);
                }
                for (name, st) in spans::self_times(&r.spans) {
                    println!(
                        "span {} {name} calls {} self_virtual_ns {} self_host_ns {}",
                        w.name, st.calls, st.virt_ns, st.host_ns
                    );
                }
                write_out(
                    &format!("{}.per_layer.json", w.name),
                    &(result_json(r.mismatches == 0, r.attempted, r.failed, &rows) + "\n"),
                )?;
                write_out(
                    &format!("{}.trace.json", w.name),
                    &spans::chrome_trace(w.name, &r.spans),
                )?;
            }
            // Host cost needs no traced pass; `run.sh check` reads it here.
            None => {
                let per = |x: f64| x / r.delivered.max(1) as f64;
                println!("layer {} simkit.host_s s {}", w.name, r.host.window_s);
                println!(
                    "layer {} simkit.host_ns_per_sample ns {}",
                    w.name,
                    per(r.host.window_s * 1e9)
                );
                println!(
                    "layer {} simkit.host_allocs_per_sample count {}",
                    w.name,
                    per(r.host.allocs as f64)
                );
            }
        }
        println!(
            "# {} took {:.1} s of host time",
            w.name,
            t0.elapsed().as_secs_f64()
        );
    }
    println!(
        "\n# suite took {:.1} s of host time",
        start.elapsed().as_secs_f64()
    );
    if problems.is_empty() {
        println!("# OK: every delivery byte-verified, every shape assertion holds");
        Ok(())
    } else {
        Err(problems.join("\n"))
    }
}

/// BENCHMARK.json, from the same tables the measurements use.
fn spec() {
    let mut s = String::from("{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    writeln!(s, "  \"run_seconds\": {RUN_SECONDS},").expect("write");
    s.push_str("  \"workloads\": [\n");
    for (i, w) in WORKLOADS.iter().enumerate() {
        let sep = if i + 1 == WORKLOADS.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{}\", \"why\": \"{}\"}}{sep}",
            w.name, w.why
        )
        .expect("write");
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, (n, unit, better, bound)) in END_TO_END.iter().enumerate() {
        let sep = if i + 1 == END_TO_END.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{n}\", \"unit\": \"{unit}\", \"better\": \"{better}\", \"bound\": {bound}}}{sep}"
        )
        .expect("write");
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, (n, unit, better)) in PER_LAYER.iter().enumerate() {
        let sep = if i + 1 == PER_LAYER.len() { "" } else { "," };
        writeln!(
            s,
            "    {{\"name\": \"{n}\", \"unit\": \"{unit}\", \"better\": \"{better}\"}}{sep}"
        )
        .expect("write");
    }
    s.push_str("  ]\n}\n");
    print!("{s}");
}

fn main() -> ExitCode {
    pin_to_current_cpu();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.first().map(String::as_str) {
        Some("suite") => suite(&args[1..]),
        Some("spec") => {
            spec();
            Ok(())
        }
        Some(a) if a.starts_with("--") => driver(&args),
        _ => Err(
            "usage: dlfs-benchmark suite [seed=N] [trace=0|1] [only=W] | spec | \
                  --workload W --seed N --seconds S --trace 0|1"
                .to_string(),
        ),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark failed:\n{e}");
            ExitCode::FAILURE
        }
    }
}
