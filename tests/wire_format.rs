//! Fixed-seed slice of the wire-format battery
//! (`crates/channel/tests/wire_fuzz.rs`): the control channel is a
//! security boundary, so random bytes, bit flips and truncated frames in
//! either direction must never panic a decoder or be silently accepted,
//! and stats replies, table dumps and controller requests round-trip
//! bit-exactly. The case bodies are shared through
//! `crates/channel/tests/support/wire_cases.rs`.

#[path = "../crates/channel/tests/support/wire_cases.rs"]
mod wire_cases;

use foces_channel::{ControllerMsg, SwitchMsg, WireRule};
use foces_dataplane::Action;
use foces_net::Port;

const SEEDS: [u64; 8] = [1, 2, 3, 7, 11, 42, 1009, 0xF0CE5];

/// A xorshift64 stream seeded from `seed`.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Rng(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1)
    }

    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    /// Uniform in `0..n`.
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in `[0, hi)`.
    fn float(&mut self, hi: f64) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * hi
    }

    fn counters(&mut self, len: usize, hi: f64) -> Vec<f64> {
        (0..len).map(|_| self.float(hi)).collect()
    }

    fn stats_reply(&mut self, max_len: u64) -> SwitchMsg {
        let len = self.below(max_len) as usize;
        SwitchMsg::StatsReply {
            xid: self.next() as u32,
            generation: self.next(),
            counters: self.counters(len, 1e15),
        }
    }

    fn rule(&mut self) -> WireRule {
        let width = 1 + self.below(99) as usize;
        let trits: Vec<u8> = (0..width).map(|_| self.below(3) as u8).collect();
        WireRule {
            match_fields: wire_cases::wildcard(width, &trits),
            priority: self.next() as u16,
            action: match self.below(4) {
                0 => Action::Drop,
                _ => Action::Forward(Port(self.below(1000) as usize)),
            },
            counter: self.float(1e12),
        }
    }
}

/// Both request kinds for a few xids, the extremes included.
fn requests() -> Vec<ControllerMsg> {
    [0, 1, 7, 0xFFFF, u32::MAX]
        .into_iter()
        .flat_map(|xid| {
            [
                ControllerMsg::StatsRequest { xid },
                ControllerMsg::TableDumpRequest { xid },
            ]
        })
        .collect()
}

#[test]
fn random_bytes_never_panic_on_fixed_seeds() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        for len in [0, 1, 2, 5, 9, 17, 64, 255] {
            let data: Vec<u8> = (0..len).map(|_| rng.next() as u8).collect();
            wire_cases::random_bytes_never_panic(&data);
        }
    }
}

#[test]
fn bit_flips_never_panic_on_fixed_seeds() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let len = rng.below(16) as usize;
        let msg = SwitchMsg::StatsReply {
            xid: 7,
            generation: rng.next(),
            counters: rng.counters(len, 1e9),
        };
        for flip_byte in 0..64 {
            for flip_bit in 0..8 {
                wire_cases::bit_flip_never_panics(&msg, flip_byte, flip_bit);
            }
        }
    }
}

#[test]
fn truncated_frames_decode_to_err_in_both_directions() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let mut msg = rng.stats_reply(32);
        if let SwitchMsg::StatsReply { counters, .. } = &mut msg {
            counters.push(rng.float(1e15)); // at least one counter
        }
        for keep in 0..msg.encode().len() {
            wire_cases::truncated_switch_frame_is_err(&msg, keep);
        }
    }
    for msg in requests() {
        for keep in 0..msg.encode().len() {
            wire_cases::truncated_controller_frame_is_err(&msg, keep);
        }
    }
}

#[test]
fn stats_replies_round_trip_on_fixed_seeds() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        for _ in 0..4 {
            wire_cases::switch_msg_round_trips(&rng.stats_reply(64));
        }
    }
}

#[test]
fn table_dumps_round_trip_on_fixed_seeds() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let len = rng.below(8) as usize;
        let rules = (0..len).map(|_| rng.rule()).collect();
        let xid = rng.next() as u32;
        wire_cases::switch_msg_round_trips(&SwitchMsg::TableDumpReply { xid, rules });
    }
}

#[test]
fn controller_requests_round_trip_for_every_kind() {
    for msg in requests() {
        wire_cases::controller_msg_round_trips(&msg);
    }
}

#[test]
fn cross_direction_decoding_never_panics_on_fixed_seeds() {
    for seed in SEEDS {
        let mut rng = Rng::new(seed);
        let reply = rng.stats_reply(16);
        for request in requests() {
            wire_cases::cross_direction_decoding_never_panics(&reply, &request);
        }
    }
}
