//! Late-park swarm: seeded shapes of lone-read-heavy readers, each run
//! to its end with the reactor's counters on, so a waiting rule that parks
//! past a completion shows as `dlfs.reactor.late_ns` in some cell.
//!
//! A shape is drawn from one SplitMix64 stream: 1–4 handles over 1–4
//! ramdisks, local or behind one or two reader NICs at 0.5–8 GB/s; one to
//! three sample sizes from 512 B to 256 KiB; synchronous reads or batched
//! reads at queue depth 1 (or 8 beside an appender); a sleep per handle between its bursts; and,
//! optionally, a latency step (every device slowed by 30 µs before it and
//! not after, or the reverse). [`APPENDERS`] more cells, drawn from a
//! stream of their own, add a background checkpoint appender on storage
//! node 0: records of 64 KiB to 1 MiB, a gap of 0 to 1 ms between them.
//! [`QUEUES`] cells more, from a third stream, keep local queues: one or
//! two handles batching chunk runs at queue depth 8 to 128 over samples of
//! one or two nominal sizes from 4 KiB to 64 KiB, each ± 1/16, so a
//! queue mixes read sizes; half of them beside an appender. [`WIRES`]
//! cells more, from a fourth stream, batch the same way through one
//! reader NIC: one or two handles over two to four NVMe-oF ramdisks,
//! samples of one nominal size from 8 KiB to 32 KiB in chunks of four
//! samples, so ≈ 3-sample chunk runs follow 1-sample edge reads and a run
//! can exceed twice the mean bytes the wire's clock sampled.
//! [`ZERO_COPIES`] cells more, from a fifth stream, batch zero-copy through
//! one reader NIC at queue depth 8 to 128: one or two handles over one to
//! three NVMe-oF ramdisks, samples of 8 to 64 KiB ± 1/16 in chunks of one,
//! two or four of them, so a sample or an edge read straddles a chunk
//! boundary and is read in two parts; their landings stage no copy-pool
//! work, so a wait parks through those its batch does not need.
//! Every cell reports its waits, parked time, late waits (operations
//! during which `late_ns` grew), Σ `late_ns` and, beside it, Σ
//! `excess_ns` (what its waits spun and woke beyond clairvoyant ones);
//! a failing cell prints a one-line `park seed=… shape=…` repro, and
//! `DLFS_SWARM_SEED=<seed>` runs that cell alone (`DLFS_SWARM_APPENDER=1` with its appender,
//! `DLFS_SWARM_QUEUE=1` as a queue cell, `DLFS_SWARM_WIRE=1` as a wire
//! cell, `DLFS_SWARM_ZERO_COPY=1` as a zero-copy cell).
//! `DLFS_SWARM_CELLS` runs the first N cells of each kind only (and the
//! cells once found late).

mod common;

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
use dlfs::source::SampleSource;
use dlfs::{
    BatchMode, Deployment, DlfsConfig, DlfsError, DlfsInstance, MountBuilder, ReadRequest,
    SyntheticSource,
};
use fabric::{Cluster, FabricConfig};
use simkit::prelude::*;
use simkit::rng::SplitMix64;

/// Cells of the full swarm.
const CELLS: usize = 48;

/// Σ `late_ns` of each cell at the base seed when a lone read parked half
/// its wait to a guessed floor.
const BEFORE: [u64; CELLS] = [
    0, 0, 39_908, 0, 713_654, 101_116, 0, 0, 150_136, 0, 0, 9_509, 23_587, 12_231, 103_224, 0, 0,
    0, 0, 124_681, 18_211, 0, 0, 893_399, 0, 21_882, 12_125, 0, 0, 154_147, 0, 0, 0, 30_079, 5_950,
    0, 162_337, 26_983, 80_070, 197_275, 260_294, 0, 0, 87_941, 0, 12_658, 0, 1_981,
];

/// Cells with a checkpoint appender.
const APPENDERS: usize = 16;

/// The swarm's base seed.
const BASE: u64 = 0x5a7;

/// Σ `late_ns` of each appender cell when the device's clock timed every
/// pass, a checkpoint write's included, at the base seed and at the CI
/// sweep's second-seed offset. A lone read timed beside a write over the
/// fabric can leave a floor above what the path takes alone, so at other
/// seeds an appender cell is reported, not judged.
const BESIDE: [(u64, [u64; APPENDERS]); 2] = [
    (BASE, [0, 0, 0, 0, 0, 0, 30_000, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    (
        BASE + 1000,
        [
            0, 0, 0, 0, 0, 306_217, 0, 0, 0, 0, 0, 0, 10_554, 30_000, 0, 0,
        ],
    ),
];

/// Cells with local queues of jittered sizes. When a device's clock
/// timed every head at one rate, none parked late at the base seed or at
/// offsets 1000 and 7.
const QUEUES: usize = 16;

/// Cells with queues of jittered sizes behind one reader NIC, whose chunk
/// runs straddle twice the mean bytes the wire's clock samples.
const WIRES: usize = 16;

/// Σ `late_ns` of each wire cell at the base seed and at the CI sweep's
/// offsets 1000 and 7. The reader's ingress is booked apart from the
/// targets' egress, so a payload held at a busy egress lets the next one
/// land sooner than the NIC moves its bytes: a few waits in a queue of
/// depth 8 park late, by under 2 µs each, as they did when a run over
/// twice the mean crossed as nothing. At other seeds a wire cell is
/// reported, not judged.
const WIRE_LATE: [(u64, [u64; WIRES]); 3] = [
    (
        BASE,
        [0, 4_886, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 54_598],
    ),
    (
        BASE + 1000,
        [1_465, 454, 0, 43_909, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    ),
    (
        BASE + 7,
        [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 27_495, 0, 0, 0, 0, 0],
    ),
];

/// Cells that batch zero-copy behind one reader NIC, over samples that
/// straddle a chunk boundary.
const ZERO_COPIES: usize = 16;

/// Σ `late_ns` of each zero-copy cell at the base seed and at the CI
/// sweep's offsets 1000 and 7. Their wires land some payloads sooner than
/// the NIC moves their bytes, as the wire cells of [`WIRE_LATE`] do, so
/// a floor can overshoot a landing by under 1 µs. Waiting for every
/// landing, the same cells ran 29 733 ns late in 7 waits (cell 0 at the
/// base seed), and 3 936 in 8 and 42 996 in 36 (cells 3 and 14 at offset
/// 7). At other seeds a zero-copy cell is reported, not judged.
const ZERO_COPY_LATE: [(u64, [u64; ZERO_COPIES]); 3] = [
    (BASE, [7_668, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0]),
    (BASE + 1000, [0; ZERO_COPIES]),
    (
        BASE + 7,
        [0, 0, 0, 16_999, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 16_477, 0],
    ),
];

/// The kind of a cell, each drawn from a stream of its own.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Kind {
    /// Lone-read-heavy readers.
    Lone,
    /// The same beside a checkpoint appender.
    Appender,
    /// Local queues of jittered sizes, half of them beside an appender.
    Queue,
    /// Queues of jittered sizes behind one reader NIC.
    Wire,
    /// The same delivered zero-copy, over samples that straddle a chunk.
    ZeroCopy,
}

/// What one cell runs.
#[derive(Clone, Debug)]
struct Shape {
    handles: usize,
    devices: usize,
    /// Reader NICs the handles sit behind; 0 is local.
    nics: usize,
    gbps: f64,
    /// Per-command delay of every device.
    delay_us: u64,
    sizes: Vec<u64>,
    chunk_size: u64,
    /// Synchronous reads, or batched ones at queue depth `depth`: 1, or
    /// 1 or 8 in a cell with an appender; in a queue cell, batched chunk
    /// runs at 8 to 128, each sample's size within 1/16 of one of `sizes`;
    /// a wire cell likewise.
    sync: bool,
    depth: usize,
    queue: bool,
    /// Batches delivered zero-copy.
    zero_copy: bool,
    /// Reads per burst, and each handle's sleep between its bursts.
    burst: usize,
    sleeps_us: Vec<u64>,
    /// A latency step: `Some(true)` slows every device before it, so the
    /// step is down; `Some(false)` after it.
    step: Option<bool>,
    /// A checkpoint appender's record bytes and gap between records.
    appender: Option<(usize, u64)>,
}

impl Shape {
    fn draw(seed: u64, kind: Kind) -> Shape {
        match kind {
            Kind::Queue => return Shape::queue(seed),
            Kind::Wire => return Shape::wire(seed),
            Kind::ZeroCopy => return Shape::zero_copy(seed),
            Kind::Lone | Kind::Appender => {}
        }
        let appender = kind == Kind::Appender;
        let mut rng = SplitMix64::derive(seed, 0x9a5c);
        let handles = rng.range(1, 5) as usize;
        let devices = rng.range(1, 5) as usize;
        let nics = rng.below(3) as usize;
        let gbps = [0.5, 1.0, 2.0, 4.0, 8.0][rng.below(5) as usize];
        let delay_us = rng.range(5, 31);
        // Log-uniform from 512 B (2^9) to 256 KiB (2^18).
        let sizes = (0..rng.range(1, 4))
            .map(|_| 1u64 << rng.range(9, 19))
            .collect();
        let sync = rng.below(2) == 0;
        let burst = rng.range(1, 9) as usize;
        let sleeps_us = (0..handles)
            .map(|_| [0, 0, 20, 100, 400][rng.below(5) as usize])
            .collect();
        let step = [None, None, Some(true), Some(false)][rng.below(4) as usize];
        let mut rng = SplitMix64::derive(seed, 0xc4);
        let appender = appender.then(|| {
            let gap_us = [0, 50, 200, 1_000][rng.below(4) as usize];
            (1 << rng.range(16, 21), gap_us)
        });
        let depth = match (sync, appender) {
            (true, _) => 8,
            (false, None) => 1,
            (false, Some(_)) => [1, 8][rng.below(2) as usize],
        };
        Shape {
            handles,
            devices,
            nics,
            gbps,
            delay_us,
            sizes,
            chunk_size: DlfsConfig::default().chunk_size,
            sync,
            depth,
            queue: false,
            zero_copy: false,
            burst,
            sleeps_us,
            step,
            appender,
        }
    }

    /// A queue cell: one or two handles over one or two local ramdisks,
    /// batching up to 32 samples at a time.
    fn queue(seed: u64) -> Shape {
        let mut rng = SplitMix64::derive(seed, 0x9e0e);
        let handles = rng.range(1, 3) as usize;
        let sizes = (0..rng.range(1, 3))
            .map(|_| 1u64 << rng.range(12, 17))
            .collect();
        let appender = (rng.below(2) == 0).then(|| {
            let gap_us = [0, 50, 200, 1_000][rng.below(4) as usize];
            (1 << rng.range(16, 21), gap_us)
        });
        Shape {
            handles,
            devices: rng.range(1, 3) as usize,
            nics: 0,
            gbps: 0.0,
            delay_us: rng.range(5, 31),
            sizes,
            chunk_size: DlfsConfig::default().chunk_size,
            sync: false,
            depth: [8, 32, 128][rng.below(3) as usize],
            queue: true,
            zero_copy: false,
            burst: rng.range(8, 33) as usize,
            sleeps_us: (0..handles)
                .map(|_| [0, 0, 20, 100][rng.below(4) as usize])
                .collect(),
            step: None,
            appender,
        }
    }

    /// A wire cell: one or two handles behind one reader NIC of 0.5 to
    /// 2 GB/s, over two to four NVMe-oF ramdisks, batching chunk runs at
    /// queue depth 8 to 128; samples of 8, 16 or 32 KiB ± 1/16, four to a
    /// chunk.
    fn wire(seed: u64) -> Shape {
        let mut rng = SplitMix64::derive(seed, 0x31e);
        let handles = rng.range(1, 3) as usize;
        let size = 1u64 << rng.range(13, 16);
        Shape {
            handles,
            devices: rng.range(2, 5) as usize,
            nics: 1,
            gbps: [0.5, 1.0, 2.0][rng.below(3) as usize],
            delay_us: rng.range(5, 31),
            sizes: vec![size],
            chunk_size: 4 * size,
            sync: false,
            depth: [8, 32, 128][rng.below(3) as usize],
            queue: true,
            zero_copy: false,
            burst: rng.range(8, 33) as usize,
            sleeps_us: (0..handles)
                .map(|_| [0, 0, 20, 100][rng.below(4) as usize])
                .collect(),
            step: None,
            appender: None,
        }
    }

    /// A zero-copy cell: one or two handles behind one reader NIC of 0.5
    /// to 2 GB/s, over one to three NVMe-oF ramdisks, batching at queue
    /// depth 8 to 128; samples of 8 to 64 KiB ± 1/16 in chunks of one, two
    /// or four of them.
    fn zero_copy(seed: u64) -> Shape {
        let mut rng = SplitMix64::derive(seed, 0x2e0c);
        let handles = rng.range(1, 3) as usize;
        let size = 1u64 << rng.range(13, 17);
        Shape {
            handles,
            devices: rng.range(1, 4) as usize,
            nics: 1,
            gbps: [0.5, 1.0, 2.0][rng.below(3) as usize],
            delay_us: rng.range(5, 31),
            sizes: vec![size],
            chunk_size: size << rng.below(3),
            sync: false,
            depth: [8, 32, 128][rng.below(3) as usize],
            queue: true,
            zero_copy: true,
            burst: rng.range(8, 33) as usize,
            sleeps_us: (0..handles)
                .map(|_| [0, 0, 20, 100][rng.below(4) as usize])
                .collect(),
            step: None,
            appender: None,
        }
    }

    /// The reads each handle makes: a queue cell's drain an epoch.
    fn reads(&self) -> usize {
        if self.queue {
            16 * READS
        } else {
            READS
        }
    }
}

/// What one cell measured, summed over its handles.
#[derive(Clone, Copy, Debug, Default)]
struct Cell {
    waits: u64,
    parked_ns: u64,
    late_waits: u64,
    late_ns: u64,
    excess_ns: u64,
}

impl std::ops::AddAssign for Cell {
    fn add_assign(&mut self, c: Cell) {
        self.waits += c.waits;
        self.parked_ns += c.parked_ns;
        self.late_waits += c.late_waits;
        self.late_ns += c.late_ns;
        self.excess_ns += c.excess_ns;
    }
}

/// Slows every device of a cell by [`STEP`] per read, or not.
type Step = Arc<dyn Fn(bool) + Send + Sync>;

/// A latency step's size.
const STEP: Dur = Dur::micros(30);

/// Reads each handle makes.
const READS: usize = 48;

fn run(seed: u64, shape: &Shape) -> Cell {
    Runtime::simulate(seed, |rt| {
        let mut rng = SplitMix64::derive(seed, 0x512e);
        // A queue cell's handles share one epoch of its reads.
        let count = if shape.queue {
            shape.reads()
        } else {
            4 * READS
        };
        let sizes = (0..count)
            .map(|_| {
                let size = shape.sizes[rng.below(shape.sizes.len() as u64) as usize];
                match shape.queue {
                    true => size - size / 16 + rng.below(size / 8 + 1),
                    false => size,
                }
            })
            .collect();
        let source = Arc::new(SyntheticSource::new(seed, sizes));
        // An appender's checkpoint region, past the 64 MiB a cell's data
        // may take.
        let region = shape.appender.map_or(0, |_| 64 << 20);
        let ramdisk =
            DeviceConfig::emulated_ramdisk((64 << 20) + region, Dur::micros(shape.delay_us));
        let devices: Vec<_> = (0..shape.devices)
            .map(|_| NvmeDevice::new(ramdisk.clone()))
            .collect();
        let deployment = match shape.nics {
            0 => Deployment::local(shape.handles, &devices),
            nics => {
                let fabric = FabricConfig {
                    nic_bytes_per_sec: shape.gbps * 1e9,
                    ..FabricConfig::default()
                };
                // The mount's allgather reaches reader r's peers from node
                // r, so the devices sit past the first `handles` nodes.
                let first = shape.handles.max(nics);
                let cluster = Arc::new(Cluster::new(first + shape.devices, fabric));
                let readers: Vec<usize> = (0..shape.handles).map(|h| h % nics).collect();
                let nodes: Vec<usize> = (first..first + shape.devices).collect();
                Deployment::fabric(&cluster, &readers, &nodes, &devices).unwrap()
            }
        };
        let mut cfg = DlfsConfig {
            reactor_stats: true,
            batch_mode: if shape.queue {
                BatchMode::Auto
            } else {
                BatchMode::SampleLevel
            },
            queue_depth: shape.depth,
            chunk_size: shape.chunk_size,
            ..DlfsConfig::default()
        };
        if shape.appender.is_some() {
            cfg.ckpt_region_bytes = region;
        }
        let fs = MountBuilder::new(cfg).deployment(deployment);
        let fs = match shape.appender {
            None => fs,
            Some(_) => fs.persistent(),
        };
        let fs = Arc::new(fs.mount(rt, &*source).unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let appender = shape.appender.map(|(bytes, gap_us)| {
            let mut writer = fs.checkpoint_writer(rt, 0, 0, None).unwrap();
            let stop = stop.clone();
            rt.spawn_with("ckpt-stream", move |rt| {
                let record = vec![0xc4; bytes];
                while !stop.load(Ordering::SeqCst) && writer.remaining() > 2 * bytes as u64 {
                    writer.append(rt, &record).unwrap();
                    rt.sleep(Dur::micros(gap_us));
                }
            })
        });
        let on = devices.clone();
        let slow: Step = Arc::new(move |slowed| {
            let extra = if slowed { STEP } else { Dur::ZERO };
            for d in &on {
                d.set_faults(FaultInjector::new(seed).with_latency_spikes(1_000_000, extra));
            }
        });
        if let Some(down) = shape.step {
            slow(down);
        }
        let handles: Vec<_> = (0..shape.handles)
            .map(|h| {
                let (fs, source, shape) = (fs.clone(), source.clone(), shape.clone());
                let step = (h == 0 && shape.step.is_some()).then(|| slow.clone());
                rt.spawn_with(&format!("reader{h}"), move |rt| {
                    handle(rt, &fs, &source, &shape, h, seed, step)
                })
            })
            .collect();
        let mut sum = Cell::default();
        handles.into_iter().for_each(|h| sum += h.join());
        stop.store(true, Ordering::SeqCst);
        if let Some(appender) = appender {
            appender.join();
        }
        sum
    })
    .0
}

/// Handle `h`'s reads, in bursts with its sleep between them; handle 0
/// takes the latency step, if any, halfway.
fn handle(
    rt: &Runtime,
    fs: &DlfsInstance,
    source: &SyntheticSource,
    shape: &Shape,
    h: usize,
    seed: u64,
    step: Option<Step>,
) -> Cell {
    let mut io = fs.io(h);
    let mut ids = SplitMix64::derive(seed, 0x1d5 + h as u64);
    let late = |io: &dlfs::DlfsIo| io.metrics().counter("dlfs.reactor.late_ns");
    let mut late_waits = 0;
    if !shape.sync {
        io.sequence(rt, seed, 0);
    }
    let (mut done, reads) = (0, shape.reads());
    while done < reads {
        if done >= reads / 2 {
            if let (Some(step), Some(down)) = (step.as_ref(), shape.step) {
                step(!down);
            }
        }
        let before = late(&io);
        let n = shape.burst.min(reads - done);
        if shape.sync {
            for _ in 0..n {
                let id = ids.below(source.count() as u64) as u32;
                assert_eq!(io.read_by_id(rt, id).unwrap(), source.expected(id));
            }
        } else if shape.zero_copy {
            match io.submit(rt, &ReadRequest::batch(n).zero_copy()) {
                Ok(got) => got
                    .into_zero_copy()
                    .into_iter()
                    .for_each(|s| assert_eq!(s.to_vec(), source.expected(s.id))),
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        } else {
            match io.submit(rt, &ReadRequest::batch(n)) {
                Ok(got) => got
                    .into_copied()
                    .into_iter()
                    .for_each(|(id, data)| assert_eq!(data, source.expected(id))),
                Err(DlfsError::EpochExhausted) => break,
                Err(e) => panic!("epoch failed: {e}"),
            }
        }
        late_waits += (late(&io) > before) as u64;
        done += n;
        rt.sleep(Dur::micros(shape.sleeps_us[h]));
    }
    let m = io.metrics();
    let reactor = |c: &str| m.counter(&format!("dlfs.reactor.{c}"));
    Cell {
        waits: reactor("wakeups"),
        parked_ns: reactor("parked_ns"),
        late_waits,
        late_ns: reactor("late_ns"),
        excess_ns: reactor("excess_ns"),
    }
}

/// Cells of other seeds that once parked late, run with every swarm:
/// handles behind one slow NIC that read other devices than each other,
/// so only their payloads queue on the ingress.
const ONCE_LATE: [u64; 2] = [8_392_477_305_216_635_401, 12_246_224_950_615_379_232];

/// The streams the appender and the queue cells' seeds are drawn from,
/// apart from the others'.
const APPENDER_STREAM: u64 = 0xc4_0000;
const QUEUE_STREAM: u64 = 0x9e_0000;
const WIRE_STREAM: u64 = 0x31_0000;
const ZERO_COPY_STREAM: u64 = 0x2e_0000;

/// The cells to run: the one `DLFS_SWARM_SEED` names, else the first
/// `DLFS_SWARM_CELLS` of each kind (all [`CELLS`], [`APPENDERS`],
/// [`QUEUES`], [`WIRES`] and [`ZERO_COPIES`] by default), each with its
/// index, and the [`ONCE_LATE`] ones; each with its kind.
fn cells(base: u64) -> Vec<(Option<usize>, u64, Kind)> {
    let env = |name: &str| std::env::var(name).ok().and_then(|v| v.parse::<u64>().ok());
    if let Some(seed) = env("DLFS_SWARM_SEED") {
        let on = |name: &str| env(name) == Some(1);
        let kind = match (on("DLFS_SWARM_APPENDER"), on("DLFS_SWARM_QUEUE")) {
            (true, _) => Kind::Appender,
            (_, true) => Kind::Queue,
            _ if on("DLFS_SWARM_WIRE") => Kind::Wire,
            _ if on("DLFS_SWARM_ZERO_COPY") => Kind::ZeroCopy,
            _ => Kind::Lone,
        };
        return vec![(None, seed, kind)];
    }
    let n = env("DLFS_SWARM_CELLS").map_or(CELLS, |n| n as usize);
    let draw = |stream: u64, i: usize| SplitMix64::derive(base, stream + i as u64).next();
    let kind = |count: usize, stream: u64, kind: Kind| {
        (0..n.min(count)).map(move |i| (Some(i), draw(stream, i), kind))
    };
    let once_late = ONCE_LATE.map(|seed| (None, seed, Kind::Lone));
    (kind(CELLS, 0, Kind::Lone))
        .chain(kind(APPENDERS, APPENDER_STREAM, Kind::Appender))
        .chain(kind(QUEUES, QUEUE_STREAM, Kind::Queue))
        .chain(kind(WIRES, WIRE_STREAM, Kind::Wire))
        .chain(kind(ZERO_COPIES, ZERO_COPY_STREAM, Kind::ZeroCopy))
        .chain(once_late)
        .collect()
}

/// No wait parks past its completion unless a latency step is taken: a
/// step down leaves what a handle timed alone too slow, so each handle is
/// late once, by no more than the step, and times its reads again; a step
/// up is no later than when a lone read parked half its wait (pinned at
/// the base seed only). An appender cell is no later than its pin in
/// [`BESIDE`], a wire cell than its pin in [`WIRE_LATE`], a zero-copy cell
/// than its pin in [`ZERO_COPY_LATE`]. A queue, wire or zero-copy cell
/// takes no step.
#[test]
fn a_wait_parks_late_only_once_after_a_step_down() {
    let base = common::test_seed(BASE);
    let mut failed = Vec::new();
    // Totals over the lone and appender cells, the queue cells, the wire
    // cells and the zero-copy cells.
    let [mut total, mut queues, mut wires, mut zero_copies] = [Cell::default(); 4];
    for (i, seed, kind) in cells(base) {
        let shape = Shape::draw(seed, kind);
        let cell = run(seed, &shape);
        println!("cell {i:?} seed={seed} {shape:?} {cell:?}");
        match kind {
            Kind::Queue => queues += cell,
            Kind::Wire => wires += cell,
            Kind::ZeroCopy => zero_copies += cell,
            Kind::Lone | Kind::Appender => total += cell,
        }
        let beside = BESIDE.iter().find(|p| p.0 == base);
        let wire = WIRE_LATE.iter().find(|p| p.0 == base);
        let zero_copy = ZERO_COPY_LATE.iter().find(|p| p.0 == base);
        let on_time = match (shape.step, i, kind) {
            (_, Some(i), Kind::Appender) => beside.is_none_or(|p| cell.late_ns <= p.1[i]),
            (_, Some(i), Kind::Wire) => wire.is_none_or(|p| cell.late_ns <= p.1[i]),
            (_, Some(i), Kind::ZeroCopy) => zero_copy.is_none_or(|p| cell.late_ns <= p.1[i]),
            (_, None, Kind::Appender | Kind::Wire | Kind::ZeroCopy) => true,
            (None, ..) => cell.late_ns == 0,
            (Some(true), ..) => {
                cell.late_waits <= shape.handles as u64
                    && cell.late_ns <= cell.late_waits * STEP.as_nanos()
            }
            (Some(false), Some(i), _) if base == BASE => cell.late_ns <= BEFORE[i],
            (Some(false), ..) => true,
        };
        if !on_time {
            failed.push(format!("park seed={seed} shape={shape:?} cell={cell:?}"));
        }
    }
    println!("swarm {total:?} queues {queues:?} wires {wires:?} zero-copies {zero_copies:?}");
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
