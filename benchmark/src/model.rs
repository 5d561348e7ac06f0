//! The hardware model the benchmark runs on, as literal values, and the
//! fingerprint that pins it. A later change that recalibrates a device,
//! the fabric or a DLFS cost constant moves every virtual-time metric
//! without touching a line of product logic; the fingerprint makes that
//! visible instead of letting it pass as a speed-up.

use blocksim::DeviceConfig;
use dlfs::DlfsCosts;
use fabric::{FabricConfig, TargetConfig};
use simkit::rng::fnv1a;
use simkit::time::Dur;

/// The paper's emulated-NVMe access delay (RAM disk plus 10 us).
pub const EMU_DELAY: Dur = Dur::micros(10);

/// Value of [`fingerprint`] when the benchmark was defined. Update it only
/// in a change that says it recalibrates the model, and re-measure the
/// baseline afterwards.
pub const PINNED_FINGERPRINT: u64 = 0x8173_18f2_da2d_83de;

pub fn optane(capacity: u64) -> DeviceConfig {
    DeviceConfig::optane(capacity)
}

pub fn ramdisk(capacity: u64) -> DeviceConfig {
    DeviceConfig::emulated_ramdisk(capacity, EMU_DELAY)
}

/// FDR InfiniBand, 6.8 GB/s per direction.
pub fn fabric() -> FabricConfig {
    FabricConfig::default()
}

/// The fabric-bound wire of `cache_reuse` and `protected_offload`.
pub fn slow_fabric() -> FabricConfig {
    FabricConfig {
        nic_bytes_per_sec: 1.0e9,
        ..FabricConfig::default()
    }
}

/// FNV-1a over the `Debug` rendering of every model constant.
pub fn fingerprint() -> u64 {
    let text = format!(
        "{:?}|{:?}|{:?}|{:?}|{:?}",
        DlfsCosts::default(),
        optane(1 << 30),
        ramdisk(1 << 30),
        FabricConfig::default(),
        TargetConfig::default(),
    );
    fnv1a(text.as_bytes())
}
