//! The hardened NIC: which of the frames a host hears reach its server.
//!
//! [`PageTable::admit`] is the one statement of the rule. The simulator
//! asks it under `Calib::nic_filter` before it charges any server time;
//! the threaded runtime asks it over each drained receive burst.

use crate::{Packet, PageBuf, PageId, PageTable, Want};

/// Why the NIC dropped a frame ([`PageTable::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NicDrop {
    /// A frame about a page this host does not track, or a control frame.
    Untracked,
    /// A `ReadOnly` or `Consistent` request for a page this host neither
    /// holds nor has a grant of on its way in.
    NotInRequestGroup,
    /// A data frame that would refresh a copy nobody here has read.
    Unread,
}

impl NicDrop {
    /// Every reason, in `NicDrop as usize` order.
    pub const ALL: [NicDrop; 3] = [
        NicDrop::Untracked,
        NicDrop::NotInRequestGroup,
        NicDrop::Unread,
    ];
}

/// What the NIC does with a heard frame ([`PageTable::admit`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admit {
    /// Hand it to the server.
    Keep,
    /// Drop it: a queued request already speaks for it.
    Coalesced,
    /// Drop it, for this reason.
    Drop(NicDrop),
}

impl PageTable {
    /// What this host's NIC does with `pkt`. `in_service` and `queued`
    /// are the frames the driver's server has not finished: the one it
    /// is serving, if any, and those waiting behind it.
    ///
    /// The NIC is a member of one multicast group per page (Deering,
    /// "Host Extensions for IP Multicasting", RFC 1112, 1989) and drops
    /// what no group it has joined would let in, before the server pays
    /// to inspect it. The paper's servers received every broadcast and
    /// paid a snoop for each. The rule, in order:
    ///
    /// * A control frame ([`Packet::BridgePdu`]) is dropped as
    ///   [`NicDrop::Untracked`]: no server consumes one, as a real NIC
    ///   filters the bridge multicast address.
    /// * A request about a page this table does not
    ///   [track](PageTable::tracks) is [`NicDrop::Untracked`]: the server
    ///   would only snoop and discard it.
    /// * **Request group.** A `ReadOnly` or `Consistent` request is
    ///   [`NicDrop::NotInRequestGroup`] unless this host holds the page,
    ///   or a data frame that [transfers](Packet::transfers_to) the page
    ///   here is in service or queued. Only the holder answers such a
    ///   request, and consistency arrives no other way once the page
    ///   exists, so the group is the holder plus the host the page is on
    ///   its way into. A `Superset` request, which any full copy that
    ///   does not hold answers, always passes.
    /// * **Coalescing.** A request that passes is [`Admit::Coalesced`]
    ///   when one in `queued` is [the same request](Packet::same_request):
    ///   every reply is a broadcast, so the queued one's reply satisfies
    ///   every waiter the duplicate speaks for. Without it, clients
    ///   re-sending faster than the server's per-request cost grow its
    ///   queue without bound. A consistency transfer is directed at one
    ///   requester, so a `Consistent` request coalesces only with one
    ///   from the same host. The request in service does not count.
    /// * **Data group.** A data frame that transfers the page here always
    ///   passes. Any other is [`NicDrop::Untracked`] for a page this table
    ///   does not track, and [`NicDrop::Unread`] when it would refresh a
    ///   copy nobody here has read since its last install or refresh
    ///   ([`PageTable::wants_refresh`]). The copy keeps its bytes, and
    ///   the next read or fault on the page rejoins the group.
    ///
    /// A dropped request is one the server would not have
    /// [answered](PageTable::answers) when it reached it: a grant in
    /// service or queued would have let it in, and one heard later is
    /// installed after the request would have been served. A dropped data
    /// frame is a refresh nobody would have read before the next one,
    /// unless a read comes while it waits.
    #[inline]
    pub fn admit<'a, Q>(&self, pkt: &Packet, in_service: Option<&'a Packet>, queued: Q) -> Admit
    where
        Q: IntoIterator<Item = &'a Packet>,
        Q::IntoIter: Clone,
    {
        let host = self.host();
        let mut queued = queued.into_iter();
        match *pkt {
            Packet::PageRequest { page, want, .. } => {
                if !self.tracks(page) {
                    return Admit::Drop(NicDrop::Untracked);
                }
                let grant = |q: &Packet| q.page() == page && q.transfers_to(host);
                if want != Want::Superset
                    && !self.answers(page, want)
                    && !in_service.is_some_and(grant)
                    && !queued.clone().any(grant)
                {
                    return Admit::Drop(NicDrop::NotInRequestGroup);
                }
                if queued.any(|q| pkt.same_request(q)) {
                    Admit::Coalesced
                } else {
                    Admit::Keep
                }
            }
            Packet::PageData { page, .. } | Packet::PageReply { page, .. } => {
                if pkt.transfers_to(host) || self.wants_refresh(page) {
                    Admit::Keep
                } else if self.tracks(page) {
                    Admit::Drop(NicDrop::Unread)
                } else {
                    Admit::Drop(NicDrop::Untracked)
                }
            }
            Packet::BridgePdu { .. } => Admit::Drop(NicDrop::Untracked),
        }
    }

    /// Would this host's server answer a request for `page` wanting
    /// `want` now? Only the consistent holder answers `ReadOnly` and
    /// `Consistent`, and only a full copy that does not hold answers
    /// `Superset`.
    #[inline]
    pub fn answers(&self, page: PageId, want: Want) -> bool {
        let holds = self.is_consistent_holder(page);
        match want {
            Want::ReadOnly | Want::Consistent => holds,
            Want::Superset => !holds && self.page_buf(page).is_some_and(PageBuf::full_valid),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::tests::frame;
    use crate::{HostId, MapMode, MetherConfig, PageLength, View};

    fn req(from: u16, page: u32, want: Want) -> Packet {
        Packet::PageRequest {
            from: HostId(from),
            page: PageId::new(page),
            length: PageLength::Short,
            want,
        }
    }

    fn data(page: u32, transfer_to: Option<u16>) -> Packet {
        frame(PageId::new(page), 5, transfer_to, vec![0; 32])
    }

    /// Host 1: holds page 1; keeps a full copy of page 2 after granting
    /// it to host 2; has an unread short copy of page 0 and a short copy
    /// of page 3 it has read; does not track page 9.
    fn host_1() -> PageTable {
        let mut t = PageTable::new(HostId(1), MetherConfig::new());
        t.create_owned(PageId::new(1));
        t.create_owned(PageId::new(2));
        t.handle_packet(&req(2, 2, Want::Consistent), &mut Vec::new());
        let read = |t: &mut PageTable, page: u32| {
            let view = View::short_demand();
            t.access(
                PageId::new(page),
                view,
                MapMode::ReadOnly,
                7,
                &mut Vec::new(),
            )
        };
        for page in [0, 3] {
            read(&mut t, page).unwrap();
            t.handle_packet(&data(page, None), &mut Vec::new());
        }
        read(&mut t, 3).unwrap();
        t
    }

    #[test]
    fn one_verdict_per_rule() {
        use Admit::{Coalesced, Drop, Keep};
        use NicDrop::{NotInRequestGroup, Unread, Untracked};
        use Want::{Consistent, ReadOnly, Superset};
        let t = host_1();
        let hello = Packet::BridgePdu {
            from: HostId(900),
            device: 0,
            entries: Vec::new(),
        };
        #[rustfmt::skip]
        let rows = [
            ("request, untracked page", req(2, 9, ReadOnly), None, vec![], Drop(Untracked)),
            ("read request, copy held elsewhere", req(2, 0, ReadOnly), None, vec![], Drop(NotInRequestGroup)),
            ("write request, copy held elsewhere", req(2, 0, Consistent), None, vec![], Drop(NotInRequestGroup)),
            ("request to the holder", req(2, 1, Consistent), None, vec![], Keep),
            ("superset request, full copy that does not hold", req(2, 2, Superset), None, vec![], Keep),
            ("superset request, short copy", req(2, 0, Superset), None, vec![], Keep),
            ("grant in service", req(2, 0, ReadOnly), Some(data(0, Some(1))), vec![], Keep),
            ("grant queued", req(2, 0, Consistent), None, vec![req(3, 0, Superset), data(0, Some(1))], Keep),
            ("grant to another host", req(2, 0, ReadOnly), None, vec![data(0, Some(3))], Drop(NotInRequestGroup)),
            ("queued duplicate", req(2, 1, ReadOnly), None, vec![req(3, 1, ReadOnly)], Coalesced),
            ("duplicate in service", req(2, 1, ReadOnly), Some(req(3, 1, ReadOnly)), vec![], Keep),
            ("consistent duplicate, other host", req(2, 1, Consistent), None, vec![req(3, 1, Consistent)], Keep),
            ("consistent duplicate, same host", req(2, 1, Consistent), None, vec![req(2, 1, Consistent)], Coalesced),
            ("transfer here, untracked page", data(9, Some(1)), None, vec![], Keep),
            ("data, untracked page", data(9, None), None, vec![], Drop(Untracked)),
            ("data, unread copy", data(0, None), None, vec![], Drop(Unread)),
            ("data, read copy", data(3, None), None, vec![], Keep),
            ("transfer here, unread copy", data(0, Some(1)), None, vec![], Keep),
            ("bridge hello", hello, None, vec![], Drop(Untracked)),
        ];
        for (what, pkt, in_service, queued, verdict) in rows {
            assert_eq!(
                t.admit(&pkt, in_service.as_ref(), &queued),
                verdict,
                "{what}"
            );
        }
    }
}
