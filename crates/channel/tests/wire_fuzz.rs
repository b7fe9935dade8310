//! Property tests for the wire format: arbitrary bytes never panic the
//! decoders, and arbitrary well-formed messages round-trip bit-exactly.
//! A control channel is a security boundary; its parser gets fuzzed.
//!
//! The case bodies are `support/wire_cases.rs`; a fixed-seed slice of them
//! runs in tier-1 as `tests/wire_format.rs`.

#[path = "support/wire_cases.rs"]
mod wire_cases;

use foces_channel::{ControllerMsg, SwitchMsg, WireRule};
use foces_dataplane::Action;
use foces_headerspace::Wildcard;
use foces_net::Port;
use proptest::prelude::*;

fn arbitrary_wildcard() -> impl Strategy<Value = Wildcard> {
    (1usize..100, proptest::collection::vec(0u8..3, 100))
        .prop_map(|(width, trits)| wire_cases::wildcard(width, &trits))
}

fn arbitrary_rule() -> impl Strategy<Value = WireRule> {
    (
        arbitrary_wildcard(),
        any::<u16>(),
        prop_oneof![
            Just(Action::Drop),
            (0usize..1000).prop_map(|p| Action::Forward(Port(p)))
        ],
        0.0f64..1e12,
    )
        .prop_map(|(match_fields, priority, action, counter)| WireRule {
            match_fields,
            priority,
            action,
            counter,
        })
}

proptest! {
    /// Random bytes must decode to Err, never panic.
    #[test]
    fn random_bytes_never_panic(data in proptest::collection::vec(any::<u8>(), 0..256)) {
        wire_cases::random_bytes_never_panic(&data);
    }

    /// Bit-flipped valid messages must decode to Err or to a *different*
    /// well-formed message — never panic.
    #[test]
    fn bit_flips_never_panic(
        counters in proptest::collection::vec(0.0f64..1e9, 0..16),
        generation in any::<u64>(),
        flip_byte in 0usize..64,
        flip_bit in 0u8..8,
    ) {
        let msg = SwitchMsg::StatsReply { xid: 7, generation, counters };
        wire_cases::bit_flip_never_panics(&msg, flip_byte, flip_bit);
    }

    /// Arbitrary stats replies round-trip.
    #[test]
    fn stats_replies_round_trip(
        xid in any::<u32>(),
        generation in any::<u64>(),
        counters in proptest::collection::vec(0.0f64..1e15, 0..64),
    ) {
        wire_cases::switch_msg_round_trips(&SwitchMsg::StatsReply { xid, generation, counters });
    }

    /// Arbitrary table dumps (arbitrary widths, priorities, actions)
    /// round-trip.
    #[test]
    fn table_dumps_round_trip(
        xid in any::<u32>(),
        rules in proptest::collection::vec(arbitrary_rule(), 0..8),
    ) {
        wire_cases::switch_msg_round_trips(&SwitchMsg::TableDumpReply { xid, rules });
    }

    /// Both controller → switch requests round-trip for every xid.
    #[test]
    fn controller_requests_round_trip(xid in any::<u32>(), dump in any::<bool>()) {
        let msg = if dump {
            ControllerMsg::TableDumpRequest { xid }
        } else {
            ControllerMsg::StatsRequest { xid }
        };
        wire_cases::controller_msg_round_trips(&msg);
    }

    /// Every strict prefix of a valid encoding decodes to Err (a
    /// truncated frame is not silently accepted) and never panics.
    #[test]
    fn truncated_switch_frames_decode_to_err(
        xid in any::<u32>(),
        generation in any::<u64>(),
        counters in proptest::collection::vec(0.0f64..1e15, 1..32),
        cut in any::<proptest::sample::Index>(),
    ) {
        let msg = SwitchMsg::StatsReply { xid, generation, counters };
        let keep = cut.index(msg.encode().len()); // 0..len, always a strict prefix
        wire_cases::truncated_switch_frame_is_err(&msg, keep);
    }

    /// Same for controller requests: truncation is always an error.
    #[test]
    fn truncated_controller_frames_decode_to_err(
        xid in any::<u32>(),
        cut in any::<proptest::sample::Index>(),
    ) {
        let msg = ControllerMsg::TableDumpRequest { xid };
        let keep = cut.index(msg.encode().len());
        wire_cases::truncated_controller_frame_is_err(&msg, keep);
    }

    /// Cross-decoding: a switch reply fed to the controller-side decoder
    /// (and vice versa) must return Err or a message, never panic.
    #[test]
    fn cross_direction_decoding_never_panics(
        xid in any::<u32>(),
        generation in any::<u64>(),
        counters in proptest::collection::vec(0.0f64..1e9, 0..16),
    ) {
        wire_cases::cross_direction_decoding_never_panics(
            &SwitchMsg::StatsReply { xid, generation, counters },
            &ControllerMsg::StatsRequest { xid },
        );
    }
}
