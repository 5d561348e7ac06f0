//! The storage-side offload exchange of a remote target: what a piece of
//! target-side work completes streams to the client as soon as the piece
//! is done, and the rest of the dense response when it is assembled.

use blocksim::{DeviceConfig, NvmeDevice, NvmeTarget, OffloadExtent, OffloadPiece};
use fabric::{connect, Cluster, FabricConfig, NvmeOfTarget, TargetConfig};
use simkit::prelude::*;
use std::sync::Arc;

/// One offload exchange of four 20 µs pieces over one extent, each piece
/// shipping `ships` of the 4 × 40 000 response bytes early: `(assembled,
/// landed, bytes into the client's NIC)`.
fn exchange(ships: u64) -> (Time, Time, u64) {
    let (out, _) = Runtime::simulate(3, |rt| {
        let cluster = Arc::new(Cluster::new(2, FabricConfig::default()));
        let dev = NvmeDevice::new(DeviceConfig::emulated_ramdisk(16 << 20, Dur::micros(10)));
        let remote = connect(
            cluster.clone(),
            0,
            NvmeOfTarget::new(1, dev, TargetConfig::default()),
        );
        let piece = OffloadPiece {
            compute: Dur::micros(20),
            ships,
        };
        let extent = OffloadExtent {
            slba: 0,
            nblocks: 16,
            pieces: vec![piece; 4],
        };
        let (assembled, landed) = remote.reserve_offload(rt.now(), &[extent], 160_000, rt.now());
        (assembled, landed, cluster.node_traffic(0).1)
    });
    out
}

#[test]
fn decoded_pieces_ship_before_the_response_is_assembled() {
    let (at_end, streamed) = (exchange(0), exchange(40_000));
    // The target's work and the bytes on the wire are the same; only when
    // they leave differs.
    assert_eq!(at_end.0, streamed.0, "same assembly instant");
    assert_eq!(at_end.2, streamed.2, "same bytes into the client");
    // Two compute threads: the first two pieces are done 20 µs before the
    // last two, and their 80 000 B (≈ 12 µs at the default NIC) are on
    // the wire by then.
    assert!(
        streamed.1 + Dur::micros(8) < at_end.1,
        "streamed response landed at {:?}, whole one at {:?}",
        streamed.1,
        at_end.1
    );
    // All of the response streamed: what lands last is the final pieces'
    // bytes and the completion, sent once the response is assembled.
    assert!(streamed.1 > streamed.0);
}
