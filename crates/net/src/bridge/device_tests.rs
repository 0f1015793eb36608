// -----------------------------------------------------------------
// The engine: timing, queueing, fault injection.
// -----------------------------------------------------------------

fn star_bridge(cfg: BridgeConfig) -> Bridge {
    Bridge::star(layout_4x2(), PageHomePolicy::Striped, cfg)
}

#[test]
fn bridge_serialises_back_to_back_pickups() {
    let cfg = BridgeConfig::typical();
    let delay = cfg.forward_delay;
    let mut b = star_bridge(cfg);
    let at = SimTime::ZERO + SimDuration::from_millis(1);
    // Two simultaneous pickups of frames that must cross (page 1 is
    // homed on segment 1, heard on segment 0).
    let first = b.pickup(&data(0, 1, None), 0, at).to_vec();
    let second = b.pickup(&data(1, 1, None), 0, at);
    assert_eq!(first, vec![(1, at + delay)]);
    assert_eq!(
        second,
        vec![(1, at + delay + delay)],
        "queued behind the first"
    );
    assert_eq!(b.stats().forwarded, 2);
    assert_eq!(
        b.stats().bytes_forwarded,
        2 * data(0, 1, None).wire_size() as u64
    );
    assert_eq!(b.stats().req_forwarded, 0, "no requests crossed");
}

#[test]
fn bridge_filters_local_traffic() {
    let mut b = star_bridge(BridgeConfig::typical());
    let out = b.pickup(&data(0, 0, None), 0, SimTime::ZERO);
    assert!(out.is_empty());
    assert_eq!(b.stats().filtered, 1);
    assert_eq!(b.stats().heard, 1);
    assert_eq!(b.stats().forwarded, 0);
}

#[test]
fn control_frames_never_enter_the_data_engine() {
    let mut b = star_bridge(BridgeConfig::typical());
    let pdu = b.policy_mut().pdu_for_emission();
    let out = b.pickup(&pdu, 0, SimTime::ZERO);
    assert!(out.is_empty());
    assert_eq!(b.stats().heard, 0, "not even counted as heard");
}

#[test]
fn full_queue_tail_drops() {
    let cfg = BridgeConfig::typical().with_queue_frames(2);
    let mut b = star_bridge(cfg);
    let at = SimTime::ZERO;
    assert!(!b.pickup(&data(0, 1, None), 0, at).is_empty());
    assert!(!b.pickup(&data(0, 1, None), 0, at).is_empty());
    // Third simultaneous pickup: both slots still occupied.
    assert!(b.pickup(&data(0, 1, None), 0, at).is_empty());
    assert_eq!(b.stats().queue_drops, 1);
    // Once the backlog has drained, pickups flow again.
    let later = at + SimDuration::from_secs(1);
    assert!(!b.pickup(&data(0, 1, None), 0, later).is_empty());
}

#[test]
fn drop_knob_discards_roughly_p() {
    let cfg = BridgeConfig::typical()
        .with_queue_frames(usize::MAX)
        .with_drop(0.3)
        .with_seed(42);
    let mut b = star_bridge(cfg);
    let n = 2000;
    let mut now = SimTime::ZERO;
    for _ in 0..n {
        now += SimDuration::from_millis(1);
        let _ = b.pickup(&data(0, 1, None), 0, now);
    }
    let rate = b.stats().dropped as f64 / n as f64;
    assert!((0.25..0.35).contains(&rate), "observed drop rate {rate}");
}

#[test]
fn duplicate_knob_emits_extra_copies() {
    let cfg = BridgeConfig::typical()
        .with_queue_frames(usize::MAX)
        .with_duplicate(1.0)
        .with_seed(7);
    let delay = cfg.forward_delay;
    let mut b = star_bridge(cfg);
    let out = b.pickup(&data(0, 1, None), 0, SimTime::ZERO);
    assert_eq!(
        out,
        vec![
            (1, SimTime::ZERO + delay),
            (1, SimTime::ZERO + delay + delay)
        ],
        "two copies, serialised through the engine"
    );
    assert_eq!(b.stats().duplicated, 1);
    assert_eq!(b.stats().forwarded, 2);
}

#[test]
fn duplicated_copy_respects_the_queue_bound() {
    // A full-but-for-one-slot queue admits the first copy of a
    // duplicated frame and tail-drops the second: the backlog never
    // exceeds queue_frames.
    let cfg = BridgeConfig::typical()
        .with_queue_frames(1)
        .with_duplicate(1.0)
        .with_seed(7);
    let delay = cfg.forward_delay;
    let mut b = star_bridge(cfg);
    let out = b.pickup(&data(0, 1, None), 0, SimTime::ZERO);
    assert_eq!(
        out,
        vec![(1, SimTime::ZERO + delay)],
        "only the first copy fits the 1-frame queue"
    );
    assert_eq!(b.stats().queue_drops, 1, "the second copy tail-dropped");
    assert_eq!(b.stats().duplicated, 0, "no duplicate emission happened");
    assert_eq!(b.stats().forwarded, 1);
}

#[test]
fn knob_builders_share_one_seed_field_explicitly() {
    let cfg = BridgeConfig::typical()
        .with_drop(0.1)
        .with_duplicate(0.2)
        .with_seed(5);
    assert_eq!(cfg.drop, 0.1);
    assert_eq!(cfg.duplicate, 0.2);
    assert_eq!(cfg.seed, 5);
}
