//! The Mether wire protocol.
//!
//! Mether is "a broadcast protocol": every packet is broadcast on the
//! Ethernet and every Mether server snoops every packet. Only two kinds
//! of packet ever cross the network:
//!
//! * [`Packet::PageRequest`] — a demand-driven fault asking for a page
//!   (read-only or consistent, full or short);
//! * a copy of a page in flight. "Because Mether is a broadcast protocol,
//!   every time a page transits the network all the inconsistent copies
//!   of that page are updated." A copy travels as one of two types with
//!   the same fields and the same header layout:
//!   - [`Packet::PageReply`] — a *reply*: sent because a request asked
//!     for it (a read reply, a `Superset` reply, or a consistency
//!     transfer naming `transfer_to`);
//!   - [`Packet::PageData`] — a *publication*: sent unasked, by a purge
//!     broadcast, for data-driven readers.
//!
//! On one segment the two are indistinguishable in effect: every host
//! snoops both and handles them alike. They differ only to the bridges
//! of a segmented fabric (`mether-net`'s `bridge` module), which carry a
//! reply back toward the segments whose requests are pending and a
//! publication to every segment that has shown interest in the page.
//!
//! `PURGE`/`DO-PURGE` are *local* kernel-driver operators, not packets; a
//! purge of a writeable page manifests on the wire as a `PageData`
//! broadcast.
//!
//! The encoding is a simple length-prefixed binary format over UDP-like
//! datagrams, in one framing: the two-segment [`WireFrame`] that
//! [`Packet::encode_vectored`] builds and [`Packet::decode_frame`] parses.
//! [`Packet::wire_size`] charges header + payload as one datagram and
//! adds Ethernet + IP + UDP framing, so the simulator's network-load
//! numbers are comparable to the paper's.

use crate::topology::DeviceView;
use crate::{Error, Generation, HostMask, PageId, PageLength, Result};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

/// Identifier of a host (workstation) on the Mether network.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct HostId(pub u16);

impl fmt::Display for HostId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "host{}", self.0)
    }
}

/// What kind of copy a page request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Want {
    /// Any up-to-date copy; the requester maps it read-only (inconsistent).
    ReadOnly,
    /// The consistent copy itself; ownership moves to the requester.
    /// "We move the consistent copy of a page around, rather than just the
    /// write permission to a page."
    Consistent,
    /// The *superset* bytes of a page whose consistent copy the requester
    /// already holds as a short prefix (Figure 1: "supersets not present
    /// are marked wanted"). Answered by any host still holding a full
    /// inconsistent copy; the requester merges the tail under its own
    /// fresh prefix.
    Superset,
}

/// An encoded [`Packet`]: the one framing that crosses the wire.
///
/// `header` carries every protocol field (magic, type, addressing,
/// generation, payload length, bridge views); `payload` is the page
/// bytes of a [`Packet::PageData`] or [`Packet::PageReply`] — a
/// **zero-copy view of the packet's own `data` buffer**, shared rather
/// than copied — and is empty for every other packet type.
///
/// The two segments are one datagram: [`Packet::encoded_len`] and
/// [`Packet::wire_size`] charge header + payload together, so the
/// network-load accounting is that of one UDP datagram per packet. What
/// the split buys is host load: a full-page broadcast moves from the
/// sender's page buffer to every snooping host's page buffer without any
/// intermediate payload copy — the network does the fan-out, and no host
/// (sender included) does O(page) byte-shuffling for it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireFrame {
    /// Fixed-field segment (never empty).
    pub header: Bytes,
    /// Page-payload segment; empty unless the packet carries a page
    /// ([`Packet::is_data`]). Shares storage with the encoded packet's
    /// `data`.
    pub payload: Bytes,
}

impl WireFrame {
    /// Total encoded length across both segments.
    pub fn len(&self) -> usize {
        self.header.len() + self.payload.len()
    }

    /// True if both segments are empty (never the case for a frame built
    /// by [`Packet::encode_vectored`]).
    pub fn is_empty(&self) -> bool {
        self.header.is_empty() && self.payload.is_empty()
    }
}

/// Ethernet (14) + IPv4 (20) + UDP (8) header bytes charged per datagram.
pub(crate) const FRAME_OVERHEAD: usize = 42;

/// Minimum Ethernet frame size; small datagrams are padded up to this.
pub(crate) const MIN_FRAME: usize = 64;

const MAGIC: u16 = 0x4D45; // "ME"
const TYPE_REQUEST: u8 = 1;
const TYPE_DATA: u8 = 2;
// Type 3 was a full-view hello, retired: it now decodes as unknown.
const TYPE_BRIDGE_PDU: u8 = 4;
const TYPE_REPLY: u8 = 5;

/// Upper bound on the per-device view entries a [`Packet::BridgePdu`]
/// may carry — matches the largest fabric a `HostMask`-segmented
/// deployment can express, and caps what a garbage length field can make
/// the decoder allocate.
pub const MAX_PDU_VIEWS: usize = 1024;

/// Upper bound on the mask words one encoded [`HostMask`] may claim
/// (65 536 indices) — like [`MAX_PDU_VIEWS`], a decoder allocation cap
/// against corrupt or hostile frames, far above any simulated fabric.
pub(crate) const MAX_MASK_WORDS: usize = 1024;

/// The words of `m` as they cross the wire: trailing zero words
/// trimmed (an inline mask always carries two words in memory, but a
/// sparse one need not pay for both on the wire).
fn mask_wire_words(m: &crate::HostMask) -> &[u64] {
    let ws = m.words();
    let n = ws.iter().rposition(|&w| w != 0).map_or(0, |i| i + 1);
    &ws[..n]
}

/// Encoded length of one bridge-PDU view (see [`put_view`]).
fn view_len(v: &DeviceView) -> usize {
    8 + 1 + 2 + mask_wire_words(&v.ports).len() * 8
}

/// Writes one bridge-PDU view: version, alive flag, then the
/// variable-length port mask as a word count followed by that many
/// big-endian u64 words, lowest-indexed word first, trailing zero words
/// trimmed — a 16-segment device costs one word where a fixed 128-bit
/// field would always pay for two.
fn put_view(b: &mut BytesMut, v: &DeviceView) {
    b.put_u64(v.version);
    b.put_u8(u8::from(v.alive));
    let words = mask_wire_words(&v.ports);
    b.put_u16(words.len() as u16);
    for w in words {
        b.put_u64(*w);
    }
}

/// Parses one view written by [`put_view`], advancing `buf` past it.
fn decode_view(buf: &mut &[u8]) -> Result<DeviceView> {
    need(buf, 8 + 1 + 2)?;
    let version = buf.get_u64();
    let alive = match buf.get_u8() {
        0 => false,
        1 => true,
        a => return Err(Error::Decode(format!("bad alive flag {a}"))),
    };
    let nwords = buf.get_u16() as usize;
    if nwords > MAX_MASK_WORDS {
        return Err(Error::Decode(format!("port mask claims {nwords} words")));
    }
    need(buf, nwords * 8)?;
    let words: Vec<u64> = (0..nwords).map(|_| buf.get_u64()).collect();
    Ok(DeviceView {
        version,
        alive,
        ports: HostMask::from_words(&words),
    })
}

/// The hello's entry count, refused past [`MAX_PDU_VIEWS`] before
/// anything is allocated for it.
fn decode_count(buf: &mut &[u8]) -> Result<usize> {
    let count = buf.get_u16() as usize;
    if count > MAX_PDU_VIEWS {
        return Err(Error::Decode(format!("hello claims {count} entries")));
    }
    Ok(count)
}

fn need(buf: &[u8], n: usize) -> Result<()> {
    if buf.len() < n {
        return Err(Error::Decode(format!("need {n} bytes, have {}", buf.len())));
    }
    Ok(())
}

fn decode_length(b: u8) -> Result<PageLength> {
    match b {
        0 => Ok(PageLength::Full),
        1 => Ok(PageLength::Short),
        l => Err(Error::Decode(format!("bad length tag {l}"))),
    }
}

/// A Mether datagram.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Packet {
    /// Broadcast request for a page. Answered by whichever host holds the
    /// consistent copy.
    PageRequest {
        /// The requesting host.
        from: HostId,
        /// The page wanted.
        page: PageId,
        /// How much of it to transfer (full or short).
        length: PageLength,
        /// Read-only copy or the consistent copy itself.
        want: Want,
    },
    /// Broadcast copy of a page, published unasked (a purge broadcast).
    /// All servers snoop it and refresh their inconsistent copies; if
    /// `transfer_to` is set, that host becomes the new consistent holder.
    PageData {
        /// The sending host (the consistent holder at send time).
        from: HostId,
        /// The page carried.
        page: PageId,
        /// Full or short transfer.
        length: PageLength,
        /// Version of the page carried.
        generation: Generation,
        /// If set, consistency transfers to this host.
        transfer_to: Option<HostId>,
        /// The page bytes (a full page or a short-page prefix).
        data: Bytes,
    },
    /// Broadcast copy of a page sent in answer to a [`Packet::PageRequest`]:
    /// a read reply, a `Superset` reply, or a consistency transfer. The
    /// fields, their meaning to a snooping server, and the header layout
    /// are [`Packet::PageData`]'s; only the type byte differs, so a bridge
    /// can carry a reply back toward the requests it answers alone.
    PageReply {
        /// The sending host.
        from: HostId,
        /// The page carried.
        page: PageId,
        /// Full or short transfer.
        length: PageLength,
        /// Version of the page carried.
        generation: Generation,
        /// If set, consistency transfers to this host.
        transfer_to: Option<HostId>,
        /// The page bytes (a full page or a short-page prefix).
        data: Bytes,
    },
    /// A bridge-to-bridge spanning-tree control frame (hello/TC),
    /// broadcast on each of a bridge device's ports at the hello cadence
    /// and immediately on change. It is sparse: only the entries worth
    /// announcing (the sender's own view, views that changed since its
    /// last hello, and a small rotating anti-entropy window), each
    /// tagged with its device id, so a hello's wire cost stays O(1) in
    /// fabric size; absent entries simply carry no news. Mether servers
    /// never consume these — a host NIC filters them the way real NICs
    /// filter BPDU multicasts — but they ride the same wire, occupy the
    /// same medium, and cross the same codec as page traffic.
    BridgePdu {
        /// The emitting device's fabric endpoint id
        /// (`BRIDGE_HOST_BASE + device` in the runtime).
        from: HostId,
        /// The emitting bridge device's index in the topology.
        device: u16,
        /// `(device id, view)` gossip entries ([`crate::DeviceView`]
        /// versioned-gossip beliefs), ids strictly ascending.
        entries: Vec<(u16, DeviceView)>,
    },
}

impl Packet {
    /// The page this packet concerns. Control frames
    /// ([`Packet::BridgePdu`]) carry no page and report page 0.
    pub fn page(&self) -> PageId {
        match self {
            Packet::PageRequest { page, .. }
            | Packet::PageData { page, .. }
            | Packet::PageReply { page, .. } => *page,
            Packet::BridgePdu { .. } => PageId::new(0),
        }
    }

    /// The sending host.
    pub fn from(&self) -> HostId {
        match self {
            Packet::PageRequest { from, .. }
            | Packet::PageData { from, .. }
            | Packet::PageReply { from, .. }
            | Packet::BridgePdu { from, .. } => *from,
        }
    }

    /// True for data-carrying packets: publications and replies alike.
    pub fn is_data(&self) -> bool {
        matches!(self, Packet::PageData { .. } | Packet::PageReply { .. })
    }

    /// True for a [`Packet::PageReply`]: data a request asked for.
    pub fn is_reply(&self) -> bool {
        matches!(self, Packet::PageReply { .. })
    }

    /// True for bridge-to-bridge control frames, which no Mether server
    /// consumes.
    pub fn is_control(&self) -> bool {
        matches!(self, Packet::BridgePdu { .. })
    }

    /// True for a data frame that hands the page's consistency to `host`.
    #[inline]
    pub fn transfers_to(&self, host: HostId) -> bool {
        matches!(
            self,
            Packet::PageData { transfer_to: Some(to), .. }
                | Packet::PageReply { transfer_to: Some(to), .. }
                if *to == host
        )
    }

    /// Are `self` and `other` page requests that one broadcast reply
    /// satisfies both of? Same page, length, and want — plus the same
    /// requester for directed consistency transfers. The one rule every
    /// request coalescer applies.
    pub fn same_request(&self, other: &Packet) -> bool {
        let (
            Packet::PageRequest {
                from: af,
                page: ap,
                length: al,
                want: aw,
            },
            Packet::PageRequest {
                from: bf,
                page: bp,
                length: bl,
                want: bw,
            },
        ) = (self, other)
        else {
            return false;
        };
        ap == bp && al == bl && aw == bw && (*aw != Want::Consistent || af == bf)
    }

    /// Encoded length in bytes, header and payload segments together
    /// (without link-layer framing).
    pub fn encoded_len(&self) -> usize {
        match self {
            Packet::PageRequest { .. } => 2 + 1 + 2 + 4 + 1 + 1,
            Packet::PageData { data, .. } | Packet::PageReply { data, .. } => {
                2 + 1 + 2 + 4 + 1 + 8 + 3 + 4 + data.len()
            }
            Packet::BridgePdu { entries, .. } => {
                2 + 1 + 2 + 2 + 2 + entries.iter().map(|(_, v)| 2 + view_len(v)).sum::<usize>()
            }
        }
    }

    /// Bytes this packet occupies on the wire, including Ethernet/IP/UDP
    /// framing and minimum-frame padding. This is what the simulator's
    /// network-load accounting charges.
    pub fn wire_size(&self) -> usize {
        (self.encoded_len() + FRAME_OVERHEAD).max(MIN_FRAME)
    }

    /// Writes the header segment (every field up to, but not including,
    /// the page payload) into `b`.
    fn put_header(&self, b: &mut BytesMut) {
        match self {
            Packet::PageRequest {
                from,
                page,
                length,
                want,
            } => {
                b.put_u16(MAGIC);
                b.put_u8(TYPE_REQUEST);
                b.put_u16(from.0);
                b.put_u32(page.index());
                b.put_u8(match length {
                    PageLength::Full => 0,
                    PageLength::Short => 1,
                });
                b.put_u8(match want {
                    Want::ReadOnly => 0,
                    Want::Consistent => 1,
                    Want::Superset => 2,
                });
            }
            Packet::PageData {
                from,
                page,
                length,
                generation,
                transfer_to,
                data,
            }
            | Packet::PageReply {
                from,
                page,
                length,
                generation,
                transfer_to,
                data,
            } => {
                b.put_u16(MAGIC);
                b.put_u8(if self.is_reply() {
                    TYPE_REPLY
                } else {
                    TYPE_DATA
                });
                b.put_u16(from.0);
                b.put_u32(page.index());
                b.put_u8(match length {
                    PageLength::Full => 0,
                    PageLength::Short => 1,
                });
                b.put_u64(generation.0);
                match transfer_to {
                    None => {
                        b.put_u8(0);
                        b.put_u16(0);
                    }
                    Some(h) => {
                        b.put_u8(1);
                        b.put_u16(h.0);
                    }
                }
                b.put_u32(data.len() as u32);
            }
            Packet::BridgePdu {
                from,
                device,
                entries,
            } => {
                b.put_u16(MAGIC);
                b.put_u8(TYPE_BRIDGE_PDU);
                b.put_u16(from.0);
                b.put_u16(*device);
                b.put_u16(entries.len() as u16);
                for (d, v) in entries {
                    b.put_u16(*d);
                    put_view(b, v);
                }
            }
        }
    }

    /// Checks that every variable-length field fits its wire-format
    /// length prefix. The u16/u32 length fields would otherwise wrap
    /// silently (`entries.len() as u16` past 65 535) and emit a frame
    /// whose advertised counts disagree with its contents — corrupt on
    /// the wire, not an error at the source.
    ///
    /// The limits enforced are the decoder's own allocation caps
    /// ([`MAX_PDU_VIEWS`], [`MAX_MASK_WORDS`]) — anything larger could
    /// not be decoded by a peer even if the prefix could count it.
    ///
    /// # Errors
    ///
    /// [`Error::Encode`] naming the offending field and its limit.
    pub(crate) fn check_encodable(&self) -> Result<()> {
        match self {
            Packet::PageRequest { .. } => Ok(()),
            Packet::PageData { data, .. } | Packet::PageReply { data, .. } => {
                if data.len() > u32::MAX as usize {
                    return Err(Error::Encode(format!(
                        "payload of {} bytes exceeds the u32 length field",
                        data.len()
                    )));
                }
                Ok(())
            }
            Packet::BridgePdu { entries, .. } => {
                if entries.len() > MAX_PDU_VIEWS {
                    return Err(Error::Encode(format!(
                        "{} hello entries exceed the {MAX_PDU_VIEWS}-view limit",
                        entries.len()
                    )));
                }
                for (d, v) in entries {
                    let words = mask_wire_words(&v.ports).len();
                    if words > MAX_MASK_WORDS {
                        return Err(Error::Encode(format!(
                            "device {d} port mask of {words} words exceeds \
                             the {MAX_MASK_WORDS}-word limit"
                        )));
                    }
                }
                Ok(())
            }
        }
    }

    /// [`Packet::encode_vectored`] behind the `check_encodable` guard.
    ///
    /// # Errors
    ///
    /// [`Error::Encode`] if a field exceeds its wire length prefix; no
    /// frame is produced.
    pub fn try_encode_vectored(&self) -> Result<WireFrame> {
        self.check_encodable()?;
        Ok(self.encode_vectored_unchecked())
    }

    /// Encodes the packet as a two-segment [`WireFrame`] without copying
    /// the payload: the frame's `payload` segment is a zero-copy view of
    /// this packet's `data` buffer (`Bytes::shares_storage_with` holds),
    /// and its two segments together are [`Packet::encoded_len`] bytes.
    ///
    /// # Panics
    ///
    /// If a field exceeds its wire length prefix (see
    /// `check_encodable`) — a silent `as u16` wrap here used to
    /// emit a corrupt frame instead. Fallible callers (anything encoding
    /// frames it did not construct from in-range protocol state) should
    /// use [`Packet::try_encode_vectored`] and count the error.
    pub fn encode_vectored(&self) -> WireFrame {
        self.check_encodable()
            .expect("packet exceeds wire-format limits");
        self.encode_vectored_unchecked()
    }

    fn encode_vectored_unchecked(&self) -> WireFrame {
        let payload = match self {
            Packet::PageData { data, .. } | Packet::PageReply { data, .. } => data.clone(),
            _ => Bytes::new(),
        };
        let mut b = BytesMut::with_capacity(self.encoded_len() - payload.len());
        self.put_header(&mut b);
        WireFrame {
            header: b.freeze(),
            payload,
        }
    }

    /// Decodes a packet from a [`WireFrame`] built by
    /// [`Packet::encode_vectored`].
    ///
    /// The header segment is parsed once, whatever the packet type; a
    /// `PageData` and a `PageReply` share one parser. Either **adopts the
    /// payload segment zero-copy**: its
    /// `data` shares the segment's storage, so on an in-process wire the
    /// bytes the sender published are the very bytes every receiver
    /// installs, and one decoded packet is cloned to every snooping host
    /// for the cost of a reference-count bump.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Decode`] on truncation, bad magic, an unknown type
    /// tag, invalid field values, stray bytes after the header's last
    /// field, a payload segment on a packet type that carries none, or a
    /// payload segment whose length disagrees with the header's length
    /// field — which refuses a data header that carries its payload
    /// inline.
    pub fn decode_frame(frame: &WireFrame) -> Result<Self> {
        let mut buf: &[u8] = &frame.header;
        need(buf, 3)?;
        let magic = buf.get_u16();
        if magic != MAGIC {
            return Err(Error::Decode(format!("bad magic {magic:#x}")));
        }
        let pkt = match buf.get_u8() {
            TYPE_REQUEST => {
                need(buf, 8)?;
                let from = HostId(buf.get_u16());
                let page =
                    PageId::try_new(buf.get_u32()).map_err(|e| Error::Decode(e.to_string()))?;
                let length = decode_length(buf.get_u8())?;
                let want = match buf.get_u8() {
                    0 => Want::ReadOnly,
                    1 => Want::Consistent,
                    2 => Want::Superset,
                    w => return Err(Error::Decode(format!("bad want {w}"))),
                };
                Packet::PageRequest {
                    from,
                    page,
                    length,
                    want,
                }
            }
            tag @ (TYPE_DATA | TYPE_REPLY) => {
                need(buf, 22)?;
                let from = HostId(buf.get_u16());
                let page =
                    PageId::try_new(buf.get_u32()).map_err(|e| Error::Decode(e.to_string()))?;
                let length = decode_length(buf.get_u8())?;
                let generation = Generation(buf.get_u64());
                let has_transfer = buf.get_u8();
                let transfer_host = buf.get_u16();
                let transfer_to = match has_transfer {
                    0 => None,
                    1 => Some(HostId(transfer_host)),
                    t => return Err(Error::Decode(format!("bad transfer flag {t}"))),
                };
                let payload_len = buf.get_u32() as usize;
                if payload_len != frame.payload.len() {
                    return Err(Error::Decode(format!(
                        "length field {payload_len} != payload segment {}",
                        frame.payload.len()
                    )));
                }
                let data = frame.payload.clone();
                if tag == TYPE_REPLY {
                    Packet::PageReply {
                        from,
                        page,
                        length,
                        generation,
                        transfer_to,
                        data,
                    }
                } else {
                    Packet::PageData {
                        from,
                        page,
                        length,
                        generation,
                        transfer_to,
                        data,
                    }
                }
            }
            TYPE_BRIDGE_PDU => {
                need(buf, 6)?;
                let from = HostId(buf.get_u16());
                let device = buf.get_u16();
                let count = decode_count(&mut buf)?;
                let entries = (0..count)
                    .map(|_| {
                        need(buf, 2)?;
                        let d = buf.get_u16();
                        Ok((d, decode_view(&mut buf)?))
                    })
                    .collect::<Result<_>>()?;
                Packet::BridgePdu {
                    from,
                    device,
                    entries,
                }
            }
            t => return Err(Error::Decode(format!("unknown packet type {t}"))),
        };
        if !buf.is_empty() {
            return Err(Error::Decode(format!(
                "{} stray bytes after the header",
                buf.len()
            )));
        }
        if !pkt.is_data() && !frame.payload.is_empty() {
            return Err(Error::Decode(
                "a payload segment on a packet type that carries none".into(),
            ));
        }
        Ok(pkt)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn sample_request() -> Packet {
        Packet::PageRequest {
            from: HostId(3),
            page: PageId::new(17),
            length: PageLength::Short,
            want: Want::Consistent,
        }
    }

    fn sample_data(len: usize) -> Packet {
        Packet::PageData {
            from: HostId(1),
            page: PageId::new(4),
            length: if len <= 32 {
                PageLength::Short
            } else {
                PageLength::Full
            },
            generation: Generation(9),
            transfer_to: Some(HostId(2)),
            data: Bytes::from(vec![0xabu8; len]),
        }
    }

    /// `sample_data(len)` sent as a reply: the same six fields.
    fn sample_reply(len: usize) -> Packet {
        let Packet::PageData {
            from,
            page,
            length,
            generation,
            transfer_to,
            data,
        } = sample_data(len)
        else {
            unreachable!()
        };
        Packet::PageReply {
            from,
            page,
            length,
            generation,
            transfer_to,
            data,
        }
    }

    fn round_trip(p: &Packet) -> Packet {
        Packet::decode_frame(&p.encode_vectored()).unwrap()
    }

    /// A frame of a bare header segment: what every packet but
    /// `PageData` encodes to, and what garbage looks like to the decoder.
    fn header_only(header: impl Into<Bytes>) -> WireFrame {
        WireFrame {
            header: header.into(),
            payload: Bytes::new(),
        }
    }

    #[test]
    fn request_round_trip() {
        let p = sample_request();
        assert_eq!(round_trip(&p), p);
    }

    #[test]
    fn data_round_trip() {
        for len in [0, 1, 32, 8192] {
            let p = sample_data(len);
            assert_eq!(p.encode_vectored().len(), p.encoded_len());
            assert_eq!(round_trip(&p), p);
        }
    }

    #[test]
    fn reply_round_trips_at_the_length_of_its_publication_twin() {
        for len in [0, 1, 32, 8192] {
            let (reply, publication) = (sample_reply(len), sample_data(len));
            let frame = reply.encode_vectored();
            assert_eq!(frame.len(), reply.encoded_len());
            assert_eq!(reply.encoded_len(), publication.encoded_len());
            assert_eq!(reply.wire_size(), publication.wire_size());
            assert!(reply.is_data() && reply.is_reply());
            assert!(publication.is_data() && !publication.is_reply());
            // One byte tells them apart: the type tag.
            let twin = publication.encode_vectored();
            let differs: Vec<usize> = (0..frame.header.len())
                .filter(|&i| frame.header[i] != twin.header[i])
                .collect();
            assert_eq!(differs, vec![2], "only the type byte differs");
            let decoded = Packet::decode_frame(&frame).unwrap();
            assert_eq!(decoded, reply);
            match decoded {
                Packet::PageReply { data, .. } => {
                    assert!(data.shares_storage_with(&frame.payload), "zero-copy")
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn request_fits_minimum_frame() {
        // Request packets are tiny; they are padded to the 64-byte minimum
        // Ethernet frame. This matches the paper's §4 accounting where 1024
        // requests cost ~60 kbytes.
        assert_eq!(sample_request().wire_size(), MIN_FRAME);
    }

    #[test]
    fn short_data_wire_size_near_paper() {
        // Paper: "86kb for data packets" over ~1024 increments ≈ 84 bytes.
        let p = Packet::PageData {
            from: HostId(0),
            page: PageId::new(0),
            length: PageLength::Short,
            generation: Generation(1),
            transfer_to: None,
            data: Bytes::from(vec![0u8; 32]),
        };
        let sz = p.wire_size();
        assert!((64..=128).contains(&sz), "short data frame {sz} bytes");
    }

    #[test]
    fn full_data_wire_size() {
        let p = sample_data(8192);
        assert!(p.wire_size() > 8192);
        assert!(p.wire_size() < 8192 + 128);
    }

    /// A hello from device 5 carrying one entry per id of `ids`.
    fn sample_pdu(ids: impl IntoIterator<Item = u16>) -> Packet {
        Packet::BridgePdu {
            from: HostId(0xFF05),
            device: 5,
            entries: ids
                .into_iter()
                .map(|d| {
                    (
                        d,
                        crate::DeviceView {
                            version: u64::from(d) * 7 + 1,
                            alive: d % 3 != 0,
                            ports: crate::HostMask::range(d as usize, d as usize + 2),
                        },
                    )
                })
                .collect(),
        }
    }

    #[test]
    fn bridge_pdu_round_trip() {
        for n in [0, 1, 4, 64] {
            let p = sample_pdu(0..n);
            // Control frames are all header (empty payload segment).
            let frame = p.encode_vectored();
            assert!(frame.payload.is_empty());
            assert_eq!(frame.len(), p.encoded_len());
            assert_eq!(Packet::decode_frame(&frame).unwrap(), p);
        }
    }

    #[test]
    fn bridge_pdu_delta_round_trip() {
        // Sparse id sets: gaps between ids survive the round trip, and
        // a hello that skips most of the fabric is still a control frame.
        for ids in [vec![5], vec![0, 7, 63, 901], vec![2, 40_000]] {
            let p = sample_pdu(ids);
            assert!(p.is_control());
            assert!(!p.is_data());
            let frame = p.encode_vectored();
            assert!(frame.payload.is_empty());
            assert_eq!(frame.len(), p.encoded_len());
            assert_eq!(Packet::decode_frame(&frame).unwrap(), p);
        }
    }

    #[test]
    fn bridge_pdu_delta_is_sparse_on_the_wire() {
        // A hello pays for the entries it carries, not for the fabric:
        // a one-entry hello costs about a minimum frame, and each
        // further entry adds its own bytes and nothing else.
        let one = sample_pdu([17]);
        assert!(one.wire_size() <= MIN_FRAME + 16, "{}", one.wire_size());
        let Packet::BridgePdu { entries, .. } = sample_pdu([18]) else {
            unreachable!()
        };
        assert_eq!(
            sample_pdu([17, 18]).encoded_len(),
            one.encoded_len() + 2 + view_len(&entries[0].1)
        );
    }

    #[test]
    fn oversize_delta_is_refused_not_truncated() {
        // The entry cap counts entries, not the span of their ids: a
        // sparse hello with one entry too many is refused even though
        // its ids are spread across the whole id space.
        let over = sample_pdu((0..=MAX_PDU_VIEWS as u16).map(|d| d * 3));
        assert!(matches!(over.try_encode_vectored(), Err(Error::Encode(_))));
        let at_cap = sample_pdu((0..MAX_PDU_VIEWS as u16).map(|d| d * 3));
        assert!(at_cap.check_encodable().is_ok());
    }

    #[test]
    fn oversize_pdu_is_refused_not_truncated() {
        // entries.len() used to cross the wire as a silent `as u16`; a
        // hello past the decoder cap must now fail loudly at the encoder.
        let at_cap = sample_pdu(0..MAX_PDU_VIEWS as u16);
        assert!(at_cap.check_encodable().is_ok());
        assert_eq!(
            Packet::decode_frame(&at_cap.try_encode_vectored().unwrap()).unwrap(),
            at_cap
        );
        let over = sample_pdu(0..=MAX_PDU_VIEWS as u16);
        assert!(matches!(over.try_encode_vectored(), Err(Error::Encode(_))));
    }

    #[test]
    fn oversize_mask_is_refused_not_truncated() {
        // One view whose port mask needs more words than the u16 word
        // count (and the decoder's MAX_MASK_WORDS cap) can carry.
        let p = Packet::BridgePdu {
            from: HostId(0xFF00),
            device: 0,
            entries: vec![(
                0,
                crate::DeviceView {
                    version: 1,
                    alive: true,
                    ports: crate::HostMask::single(MAX_MASK_WORDS * 64),
                },
            )],
        };
        assert!(matches!(p.try_encode_vectored(), Err(Error::Encode(_))));
    }

    #[test]
    #[should_panic(expected = "exceeds wire-format limits")]
    fn infallible_encode_panics_on_oversize_instead_of_corrupting() {
        let _ = sample_pdu(0..=MAX_PDU_VIEWS as u16).encode_vectored();
    }

    #[test]
    fn bridge_pdu_is_control_not_data() {
        let p = sample_pdu([0, 1]);
        assert!(p.is_control());
        assert!(!p.is_data());
        assert_eq!(p.from(), HostId(0xFF05));
        assert!(p.wire_size() >= MIN_FRAME);
    }

    #[test]
    fn bridge_pdu_decode_rejects_malformed() {
        // magic 2, type 1, from 2, device 2, count 2 = a 9-byte head,
        // then per entry: id 2, version 8, alive 1, word count 2, words.
        let enc = sample_pdu([0, 1, 2]).encode_vectored().header;
        // Truncations in the head, inside the first entry's id and
        // view, and at the very end.
        for cut in [3, 7, 9, 10, 12, enc.len() - 1] {
            assert!(
                Packet::decode_frame(&header_only(enc.slice(..cut))).is_err(),
                "cut {cut}"
            );
        }
        // A corrupt alive flag.
        let mut bad = enc.to_vec();
        bad[9 + 2 + 8] = 7; // first entry's alive byte
        assert!(Packet::decode_frame(&header_only(bad)).is_err());
        // An absurd entry count must not allocate gigabytes.
        let mut huge = enc.to_vec();
        huge[7] = 0xff;
        huge[8] = 0xff;
        assert!(Packet::decode_frame(&header_only(huge)).is_err());
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(Packet::decode_frame(&header_only(Bytes::new())).is_err());
        assert!(Packet::decode_frame(&header_only(vec![0, 0, 0])).is_err());
        let mut good = sample_request().encode_vectored().header.to_vec();
        good[2] = 99; // unknown type
        assert!(Packet::decode_frame(&header_only(good)).is_err());
        // Type 3, the retired full-view hello, is unknown too.
        let mut retired = sample_pdu([0, 1]).encode_vectored().header.to_vec();
        retired[2] = 3;
        assert!(Packet::decode_frame(&header_only(retired)).is_err());
    }

    #[test]
    fn decode_rejects_truncated_data() {
        for frame in [sample_data(32), sample_reply(32)].map(|p| p.encode_vectored()) {
            // A header segment cut short anywhere.
            for cut in [3, 10, frame.header.len() - 1] {
                let res = Packet::decode_frame(&WireFrame {
                    header: frame.header.slice(..cut),
                    payload: frame.payload.clone(),
                });
                assert!(res.is_err(), "header cut at {cut}");
            }
            // A payload segment one byte short of the length field.
            let res = Packet::decode_frame(&WireFrame {
                header: frame.header.clone(),
                payload: frame.payload.slice(..frame.payload.len() - 1),
            });
            assert!(res.is_err(), "payload cut");
        }
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let mut enc = sample_request().encode_vectored().header.to_vec();
        enc[0] = 0;
        assert!(matches!(
            Packet::decode_frame(&header_only(enc)),
            Err(Error::Decode(_))
        ));
    }

    #[test]
    fn decoded_payload_is_a_zero_copy_slice_of_the_datagram() {
        let frame = sample_data(8192).encode_vectored();
        let decoded = Packet::decode_frame(&frame).unwrap();
        match &decoded {
            Packet::PageData { data, .. } => {
                assert_eq!(data.len(), 8192);
                assert!(
                    data.shares_storage_with(&frame.payload),
                    "payload must be a view of the payload segment, not a copy"
                );
            }
            other => panic!("{other:?}"),
        }
        // Cloning the decoded packet shares the same storage again: the
        // fan-out to N snooping hosts costs reference counts, not bytes.
        let cloned = decoded.clone();
        match (&decoded, &cloned) {
            (Packet::PageData { data: a, .. }, Packet::PageData { data: b, .. }) => {
                assert!(a.shares_storage_with(b));
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn encode_vectored_payload_is_zero_copy() {
        let data = Bytes::from(vec![0x5au8; 8192]);
        let p = Packet::PageData {
            from: HostId(1),
            page: PageId::new(4),
            length: PageLength::Full,
            generation: Generation(9),
            transfer_to: None,
            data: data.clone(),
        };
        let frame = p.encode_vectored();
        assert!(
            frame.payload.shares_storage_with(&data),
            "the 8 KiB payload is shared, not copied"
        );
        // And decode_frame hands the same storage onward.
        let decoded = Packet::decode_frame(&frame).unwrap();
        match &decoded {
            Packet::PageData { data: d, .. } => {
                assert!(d.shares_storage_with(&data), "decode adopts the segment")
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(decoded, p);
    }

    #[test]
    fn decode_frame_rejects_malformed_frames() {
        let good = sample_data(32).encode_vectored();
        // Request header with a payload segment.
        assert!(Packet::decode_frame(&WireFrame {
            header: sample_request().encode_vectored().header,
            payload: Bytes::from(vec![0u8; 4]),
        })
        .is_err());
        // Length field disagreeing with the payload segment.
        assert!(Packet::decode_frame(&WireFrame {
            header: good.header.clone(),
            payload: Bytes::from(vec![0u8; 31]),
        })
        .is_err());
        // Truncated header segment.
        for cut in [0, 2, 10, good.header.len() - 1] {
            assert!(
                Packet::decode_frame(&WireFrame {
                    header: good.header.slice(..cut),
                    payload: good.payload.clone(),
                })
                .is_err(),
                "cut at {cut}"
            );
        }
        // Stray bytes between the length field and the payload segment.
        let mut fat = good.header.to_vec();
        fat.push(0xff);
        assert!(Packet::decode_frame(&WireFrame {
            header: Bytes::from(fat),
            payload: good.payload.clone(),
        })
        .is_err());
        // The intact frame still decodes (the rejects above were real).
        assert!(Packet::decode_frame(&good).is_ok());
    }

    #[test]
    fn decode_frame_rejects_inline_payloads_and_stray_header_bytes() {
        // A data header that carries its payload inline, with nothing in
        // the payload segment: the length field claims 32 bytes the
        // payload segment does not hold.
        let data = sample_data(32).encode_vectored();
        let mut inline = data.header.to_vec();
        inline.extend_from_slice(&data.payload);
        assert!(Packet::decode_frame(&header_only(inline)).is_err());
        // A request or PDU header with one byte after its last field.
        for p in [sample_request(), sample_pdu([3]), sample_pdu([0, 1])] {
            let mut fat = p.encode_vectored().header.to_vec();
            assert_eq!(Packet::decode_frame(&header_only(fat.clone())).unwrap(), p);
            fat.push(0);
            assert!(
                Packet::decode_frame(&header_only(fat)).is_err(),
                "stray byte after {p:?}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_round_trip_any_data(
            from in 0u16..16,
            page in 0u32..1024,
            generation in any::<u64>(),
            transfer in proptest::option::of(0u16..16),
            data in proptest::collection::vec(any::<u8>(), 0..256),
            reply in any::<bool>(),
        ) {
            let (from, page, length, generation, transfer_to, data) = (
                HostId(from),
                PageId::new(page),
                PageLength::Short,
                Generation(generation),
                transfer.map(HostId),
                Bytes::from(data),
            );
            let p = if reply {
                Packet::PageReply { from, page, length, generation, transfer_to, data }
            } else {
                Packet::PageData { from, page, length, generation, transfer_to, data }
            };
            prop_assert_eq!(round_trip(&p), p);
        }

        #[test]
        fn prop_decode_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..64),
            split in any::<usize>(),
        ) {
            let b = Bytes::from(bytes);
            let split = split % (b.len() + 1);
            let _ = Packet::decode_frame(&WireFrame {
                header: b.slice(..split),
                payload: b.slice(split..),
            });
        }

        #[test]
        fn prop_encoded_len_matches(len in 0usize..512) {
            for p in [sample_data(len), sample_reply(len)] {
                prop_assert_eq!(p.encode_vectored().len(), p.encoded_len());
            }
        }
    }
}
