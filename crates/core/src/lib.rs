//! Core types and protocol logic for the **Mether** distributed shared memory.
//!
//! This crate is a faithful, self-contained reimplementation of the memory
//! model described in Minnich & Farber, *"Reducing Host Load, Network Load and
//! Latency in a Distributed Shared Memory"* (ICDCS 1990). It contains no I/O:
//! everything here is pure protocol logic, reused by both the discrete-event
//! simulator (`mether-sim`) and the threaded runtime (`mether-runtime`).
//!
//! # The Mether memory model
//!
//! Mether exposes a paged address space shared over a broadcast network.
//! Pages are 8192 bytes ([`PAGE_SIZE`]); a *short page* is the first 32 bytes
//! ([`SHORT_PAGE_SIZE`]) of a full page and overlays the same storage. At any
//! instant there is exactly **one consistent copy** of each page somewhere on
//! the network; any number of *inconsistent* (read-only, possibly stale)
//! copies may exist. All copies are refreshed whenever a page transits the
//! network, because every Mether server snoops broadcasts.
//!
//! How an application touches a page is encoded in the *virtual address*
//! itself (module [`addr`]): one bit selects full vs. short view, one bit
//! selects demand-driven vs. data-driven faulting. Whether the application
//! sees the consistent (writeable) or an inconsistent (read-only) copy is
//! chosen when the space is mapped ([`MapMode`]).
//!
//! The per-host protocol state machine lives in [`table::PageTable`]; the
//! hardened NIC's admission rule in [`nic`]; the wire format in [`wire`];
//! the subset/superset rules of the paper's Figure 1 in [`rules`]; the
//! generation-counter handshake used by the paper's send/receive
//! protocol in [`generation`]; the round-trip estimator that times
//! fault retransmissions in [`rto`].
//!
//! # The zero-copy page-data path
//!
//! The paper's whole argument is about *reducing host load*; this crate's
//! page-data path is therefore allocation-free in steady state:
//!
//! * [`PageBuf`] is backed by shared, reference-counted storage with
//!   copy-on-write, and holds exactly its valid prefix: a 32-byte short
//!   copy is 32 bytes. Created pages ([`PageBuf::new_zeroed`]) share
//!   one process-wide zero page until their first write, so a page
//!   nobody writes costs no bytes of its own. Publishing a full page
//!   ([`PageBuf::payload`]) hands out a shared view instead of copying
//!   8 KiB; a later local write detaches a private copy first, so
//!   published bytes are immutable.
//! * [`Packet::encode_vectored`] carries the page payload as a segment of
//!   its own, sharing the sender's storage, and [`Packet::decode_frame`]
//!   adopts that segment as the decoded packet's payload — no copy on
//!   either side. One decoded broadcast is cloned to every snooping host
//!   for a reference-count bump; each interested host *adopts* the
//!   payload as its page storage ([`PageBuf::from_payload`],
//!   [`PageBuf::refresh_from_payload`]) — zero full-page copies per
//!   snooping host.
//! * [`table::PageTable`] indexes per-page state with a dense `Vec` slot
//!   array keyed by page number (page ids are small integers), so every
//!   access/snoop/wake path costs an array index instead of a SipHash.
//!
//! `BENCH_baseline.json` at the repo root records the before/after
//! microbenchmark numbers for this design.
//!
//! # Example
//!
//! ```
//! use mether_core::{PageId, VAddr, View, PageLength, DriveMode};
//!
//! // The address of byte 8 of page 7, viewed as a short, data-driven page.
//! let view = View::new(PageLength::Short, DriveMode::Data);
//! let va = VAddr::new(PageId::new(7), view, 8).unwrap();
//! assert_eq!(va.page(), PageId::new(7));
//! assert_eq!(va.view(), view);
//! assert_eq!(va.offset(), 8);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod addr;
pub mod config;
pub mod error;
pub mod generation;
pub mod nic;
pub mod page;
pub mod rto;
pub mod rules;
pub mod table;
pub mod topology;
pub mod wire;

pub use addr::{DriveMode, HostMask, HostMaskIter, MapMode, PageId, PageLength, VAddr, View};
pub use config::{MetherConfig, SegmentLayout, PAGE_SIZE, SHORT_PAGE_SIZE};
pub use error::{Error, Result};
pub use generation::Generation;
pub use nic::{Admit, NicDrop};
pub use page::PageBuf;
pub use rto::{FaultTimer, RtoEstimator};
pub use rules::PageHomePolicy;
pub use table::{woken_waiters, AccessOutcome, Effect, FaultKind, PageTable, WakeSet};
pub use topology::{ActiveTree, BridgeTopology, DeviceView};
pub use wire::{HostId, Packet, Want, WireFrame};
