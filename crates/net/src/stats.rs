//! Traffic accounting shared by the simulated and threaded networks.

use mether_core::Packet;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Cumulative traffic counters for one network.
///
/// `bytes` uses [`Packet::wire_size`], i.e. it includes Ethernet/IP/UDP
/// framing and minimum-frame padding, matching how the paper reports
/// network load ("66 kbytes/second" etc.).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct NetStats {
    /// Datagrams transmitted (including any later lost).
    pub packets: u64,
    /// Wire bytes transmitted.
    pub bytes: u64,
    /// Request packets.
    pub requests: u64,
    /// Data-carrying packets.
    pub data_packets: u64,
    /// Data payload bytes (page contents only, no framing).
    pub payload_bytes: u64,
    /// Packets dropped by loss injection.
    pub lost: u64,
    /// Frames that failed to decode and were dropped by their transmitter
    /// on the threaded LAN (cannot happen for frames produced by
    /// `Packet::encode`; counted defensively rather than crashing the
    /// segment).
    pub decode_errors: u64,
    /// Packets refused at the sender because a field exceeded its wire
    /// length prefix (`Packet::try_encode` failed). Such a packet never
    /// reaches the wire — encoding it would have emitted a corrupt
    /// frame — and is not counted in `packets`.
    pub encode_errors: u64,
    /// Bridge-to-bridge control frames (spanning-tree hellos): wire
    /// overhead of the live election, zero under `Static` election.
    pub control_packets: u64,
}

impl NetStats {
    /// A zeroed counter set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records a transmission of `pkt`.
    pub fn record(&mut self, pkt: &Packet) {
        self.packets += 1;
        self.bytes += pkt.wire_size() as u64;
        match pkt {
            Packet::PageRequest { .. } => self.requests += 1,
            Packet::PageData { data, .. } => {
                self.data_packets += 1;
                self.payload_bytes += data.len() as u64;
            }
            Packet::BridgePdu { .. } | Packet::BridgePduDelta { .. } => self.control_packets += 1,
        }
    }

    /// Records a loss-injected drop of an already-recorded packet.
    pub fn record_loss(&mut self) {
        self.lost += 1;
    }

    /// Records a frame dropped because it failed to decode.
    pub fn record_decode_error(&mut self) {
        self.decode_errors += 1;
    }

    /// Records a packet refused at the sender because it could not be
    /// encoded without corrupting a length field.
    pub fn record_encode_error(&mut self) {
        self.encode_errors += 1;
    }

    /// Average offered load in bytes/second over a window of `secs`.
    ///
    /// Returns zero for an empty window rather than dividing by zero.
    pub fn load_bytes_per_sec(&self, secs: f64) -> f64 {
        if secs <= 0.0 {
            0.0
        } else {
            self.bytes as f64 / secs
        }
    }

    /// Difference of two counter snapshots (`self` minus `earlier`).
    #[must_use]
    pub fn delta(&self, earlier: &NetStats) -> NetStats {
        NetStats {
            packets: self.packets - earlier.packets,
            bytes: self.bytes - earlier.bytes,
            requests: self.requests - earlier.requests,
            data_packets: self.data_packets - earlier.data_packets,
            payload_bytes: self.payload_bytes - earlier.payload_bytes,
            lost: self.lost - earlier.lost,
            decode_errors: self.decode_errors - earlier.decode_errors,
            encode_errors: self.encode_errors - earlier.encode_errors,
            control_packets: self.control_packets - earlier.control_packets,
        }
    }

    /// Sums counters across segments — the flat-network view of a
    /// segmented deployment. On a multi-segment network every counter
    /// (`decode_errors` included) is kept *per segment* so faults are
    /// attributable to the wire they happened on; callers that want the
    /// old whole-network totals sum the segments through here.
    pub fn sum<'a, I: IntoIterator<Item = &'a NetStats>>(segments: I) -> NetStats {
        let mut total = NetStats::new();
        for s in segments {
            total.packets += s.packets;
            total.bytes += s.bytes;
            total.requests += s.requests;
            total.data_packets += s.data_packets;
            total.payload_bytes += s.payload_bytes;
            total.lost += s.lost;
            total.decode_errors += s.decode_errors;
            total.encode_errors += s.encode_errors;
            total.control_packets += s.control_packets;
        }
        total
    }
}

impl fmt::Display for NetStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} pkts ({} req, {} data), {} wire bytes, {} payload bytes, {} lost",
            self.packets,
            self.requests,
            self.data_packets,
            self.bytes,
            self.payload_bytes,
            self.lost
        )?;
        if self.decode_errors > 0 {
            write!(f, ", {} decode errors", self.decode_errors)?;
        }
        if self.encode_errors > 0 {
            write!(f, ", {} encode errors", self.encode_errors)?;
        }
        if self.control_packets > 0 {
            write!(f, ", {} control", self.control_packets)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;
    use mether_core::{Generation, HostId, PageId, PageLength, Want};

    fn req() -> Packet {
        Packet::PageRequest {
            from: HostId(0),
            page: PageId::new(0),
            length: PageLength::Short,
            want: Want::ReadOnly,
        }
    }

    fn data(len: usize) -> Packet {
        Packet::PageData {
            from: HostId(0),
            page: PageId::new(0),
            length: PageLength::Short,
            generation: Generation(1),
            transfer_to: None,
            data: Bytes::from(vec![0u8; len]),
        }
    }

    #[test]
    fn record_classifies_packets() {
        let mut s = NetStats::new();
        s.record(&req());
        s.record(&data(32));
        assert_eq!(s.packets, 2);
        assert_eq!(s.requests, 1);
        assert_eq!(s.data_packets, 1);
        assert_eq!(s.payload_bytes, 32);
        assert!(s.bytes >= 64 + 64, "both frames at least minimum size");
    }

    #[test]
    fn load_calculation() {
        let mut s = NetStats::new();
        for _ in 0..10 {
            s.record(&data(8192));
        }
        let load = s.load_bytes_per_sec(10.0);
        assert!(load > 8192.0 && load < 9000.0, "{load}");
        assert_eq!(s.load_bytes_per_sec(0.0), 0.0);
    }

    #[test]
    fn delta_subtracts() {
        let mut s = NetStats::new();
        s.record(&req());
        let snap = s;
        s.record(&data(32));
        let d = s.delta(&snap);
        assert_eq!(d.packets, 1);
        assert_eq!(d.requests, 0);
        assert_eq!(d.data_packets, 1);
    }

    #[test]
    fn sum_totals_per_segment_counters() {
        let mut a = NetStats::new();
        a.record(&req());
        a.record_decode_error();
        a.record_encode_error();
        let mut b = NetStats::new();
        b.record(&data(32));
        b.record_loss();
        let total = NetStats::sum([&a, &b]);
        assert_eq!(total.encode_errors, 1);
        assert_eq!(total.packets, 2);
        assert_eq!(total.requests, 1);
        assert_eq!(total.data_packets, 1);
        assert_eq!(total.payload_bytes, 32);
        assert_eq!(total.lost, 1);
        assert_eq!(total.decode_errors, 1);
        assert_eq!(total.bytes, a.bytes + b.bytes);
        assert_eq!(NetStats::sum([]), NetStats::new());
    }
}
