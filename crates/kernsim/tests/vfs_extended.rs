//! Tests of the VFS surface beyond open/pread/close: readdir, readahead,
//! and EIO from a device that keeps failing reads.

use blocksim::{DeviceConfig, FaultInjector, NvmeDevice};
use kernsim::blockio::MAX_READ_ATTEMPTS;
use kernsim::{Ext4Fs, FsError, FsOptions, KernelCosts};
use simkit::prelude::*;
use std::sync::Arc;

fn mkfs() -> Arc<Ext4Fs> {
    let dev = NvmeDevice::new(DeviceConfig::optane(256 << 20));
    Ext4Fs::mkfs(dev, KernelCosts::default(), FsOptions::default())
}

#[test]
fn readdir_lists_everything() {
    Runtime::simulate(0, |rt| {
        let fs = mkfs();
        fs.mkdir_p("/d").unwrap();
        for i in 0..250 {
            fs.create_untimed(&format!("/d/f{i:03}"), &[1u8; 100])
                .unwrap();
        }
        let mut names = fs.readdir(rt, "/d").unwrap();
        names.sort();
        assert_eq!(names.len(), 250);
        assert_eq!(names[0], "f000");
        assert_eq!(names[249], "f249");
        assert!(matches!(fs.readdir(rt, "/nope"), Err(FsError::NotFound(_))));
        assert!(matches!(
            fs.readdir(rt, "/d/f000"),
            Err(FsError::NotADirectory(_))
        ));
    });
}

#[test]
fn readdir_cost_scales_with_directory_size() {
    Runtime::simulate(0, |rt| {
        let fs = mkfs();
        fs.mkdir_p("/small").unwrap();
        fs.mkdir_p("/big").unwrap();
        for i in 0..10 {
            fs.create_untimed(&format!("/small/f{i}"), &[0u8; 64])
                .unwrap();
        }
        for i in 0..2000 {
            fs.create_untimed(&format!("/big/f{i}"), &[0u8; 64])
                .unwrap();
        }
        fs.drop_caches();
        let t0 = rt.now();
        fs.readdir(rt, "/small").unwrap();
        let small = rt.now() - t0;
        let t1 = rt.now();
        fs.readdir(rt, "/big").unwrap();
        let big = rt.now() - t1;
        assert!(
            big.as_nanos() > small.as_nanos() * 5,
            "small {small:?} big {big:?}"
        );
    });
}

#[test]
fn sequential_reads_trigger_readahead() {
    Runtime::simulate(0, |rt| {
        let fs = mkfs();
        let payload = vec![5u8; 4 << 20];
        fs.create_untimed("/stream", &payload).unwrap();
        fs.drop_caches();
        let fd = fs.open(rt, "/stream").unwrap();
        let mut chunk = vec![0u8; 64 << 10];
        // Sequential scan of the whole file.
        let mut off = 0u64;
        while off < 4 << 20 {
            let n = fs.pread(rt, fd, off, &mut chunk).unwrap();
            off += n as u64;
        }
        let (hits, misses) = fs.page_cache_stats();
        // With readahead, most page lookups after the window warms are hits.
        assert!(
            hits > misses * 3,
            "readahead should make sequential reads cache-hit: {hits} hits / {misses} misses"
        );
        fs.close(rt, fd).unwrap();
    });
}

#[test]
fn sequential_scan_beats_random_reads_per_byte() {
    Runtime::simulate(0, |rt| {
        let fs = mkfs();
        let payload = vec![7u8; 8 << 20];
        fs.create_untimed("/f", &payload).unwrap();
        fs.drop_caches();
        let fd = fs.open(rt, "/f").unwrap();
        let mut buf = vec![0u8; 64 << 10];
        let t0 = rt.now();
        let mut off = 0u64;
        while off < 8 << 20 {
            off += fs.pread(rt, fd, off, &mut buf).unwrap() as u64;
        }
        let seq = (rt.now() - t0).as_secs_f64();
        fs.drop_caches();
        // Random 64K reads covering the same bytes.
        let mut rng = simkit::rng::SplitMix64::new(1);
        let mut order: Vec<u64> = (0..128).collect();
        rng.shuffle(&mut order);
        let t1 = rt.now();
        for &i in &order {
            fs.pread(rt, fd, i * (64 << 10), &mut buf).unwrap();
        }
        let rnd = (rt.now() - t1).as_secs_f64();
        assert!(seq < rnd, "sequential {seq} should beat random {rnd}");
        fs.close(rt, fd).unwrap();
    });
}

#[test]
fn a_failing_or_killed_device_surfaces_eio() {
    Runtime::simulate(0, |rt| {
        let dev = NvmeDevice::new(DeviceConfig::optane(256 << 20));
        let fs = Ext4Fs::mkfs(dev.clone(), KernelCosts::default(), FsOptions::default());
        fs.mkdir_p("/d").unwrap();
        fs.create_untimed("/d/a", &[1u8; 8192]).unwrap();
        fs.create_untimed("/d/b", &[2u8; 8192]).unwrap();
        let fd = fs.open(rt, "/d/a").unwrap();
        // Every read now fails; cold pages must come from the device.
        dev.set_faults(FaultInjector::new(1).with_read_failures(1_000_000));
        fs.drop_caches();
        let eio = FsError::Io {
            attempts: MAX_READ_ATTEMPTS,
        };
        let mut out = vec![0u8; 8192];
        assert_eq!(fs.pread(rt, fd, 0, &mut out).unwrap_err(), eio);
        assert_eq!(fs.open(rt, "/d/b").unwrap_err(), eio);
        assert_eq!(fs.readdir(rt, "/d").unwrap_err(), eio);
        // The file system is still usable once the device recovers.
        dev.set_faults(FaultInjector::new(1));
        assert_eq!(fs.pread(rt, fd, 0, &mut out).unwrap(), 8192);
        assert!(out.iter().all(|&b| b == 1));
        // A killed device fails every read, too.
        dev.kill();
        fs.drop_caches();
        assert_eq!(fs.pread(rt, fd, 0, &mut out).unwrap_err(), eio);
        assert_eq!(fs.open(rt, "/d/b").unwrap_err(), eio);
        fs.close(rt, fd).unwrap();
    });
}
