//! Case bodies of the wire-format properties, shared by the proptest
//! battery (`crates/channel/tests/wire_fuzz.rs`) and its fixed-seed tier-1
//! slice (`tests/wire_format.rs`). A control channel is a security
//! boundary: its decoders must reject malformed frames without panicking
//! and round-trip well-formed messages bit-exactly.

use bytes::Bytes;
use foces_channel::{ControllerMsg, SwitchMsg};
use foces_headerspace::Wildcard;

/// A `width`-bit ternary match from `trits`, one per bit: 0 and 1 fix the
/// bit, anything else leaves it a wildcard.
pub fn wildcard(width: usize, trits: &[u8]) -> Wildcard {
    let mut w = Wildcard::any(width);
    for (pos, t) in trits.iter().take(width).enumerate() {
        w.set_bit(
            pos,
            match t {
                0 => Some(false),
                1 => Some(true),
                _ => None,
            },
        );
    }
    w
}

/// Arbitrary bytes decode to `Err` or to some message on both sides,
/// never panic.
pub fn random_bytes_never_panic(data: &[u8]) {
    let bytes = Bytes::from(data.to_vec());
    let _ = ControllerMsg::decode(bytes.clone());
    let _ = SwitchMsg::decode(bytes);
}

/// A valid switch frame with one bit flipped (at byte `flip_byte` modulo
/// the frame length) decodes to `Err` or to a different well-formed
/// message, never panics.
pub fn bit_flip_never_panics(msg: &SwitchMsg, flip_byte: usize, flip_bit: u8) {
    let mut bytes = msg.encode().to_vec();
    let idx = flip_byte % bytes.len();
    bytes[idx] ^= 1 << flip_bit;
    let _ = SwitchMsg::decode(Bytes::from(bytes));
}

/// A switch → controller message round-trips bit-exactly.
pub fn switch_msg_round_trips(msg: &SwitchMsg) {
    assert_eq!(&SwitchMsg::decode(msg.encode()).unwrap(), msg);
}

/// A controller → switch request round-trips bit-exactly.
pub fn controller_msg_round_trips(msg: &ControllerMsg) {
    assert_eq!(&ControllerMsg::decode(msg.encode()).unwrap(), msg);
}

/// The first `keep` bytes of `msg`'s encoding, a strict prefix, decode to
/// `Err`: a truncated frame is never silently accepted.
pub fn truncated_switch_frame_is_err(msg: &SwitchMsg, keep: usize) {
    let full = msg.encode().to_vec();
    assert!(keep < full.len(), "a strict prefix");
    let res = SwitchMsg::decode(Bytes::from(full[..keep].to_vec()));
    assert!(
        res.is_err(),
        "prefix of {keep}/{} bytes decoded",
        full.len()
    );
}

/// [`truncated_switch_frame_is_err`] for controller requests.
pub fn truncated_controller_frame_is_err(msg: &ControllerMsg, keep: usize) {
    let full = msg.encode().to_vec();
    assert!(keep < full.len(), "a strict prefix");
    let res = ControllerMsg::decode(Bytes::from(full[..keep].to_vec()));
    assert!(
        res.is_err(),
        "prefix of {keep}/{} bytes decoded",
        full.len()
    );
}

/// A switch reply fed to the controller-side decoder, and a request fed
/// to the switch-side one, decode to `Err` or a message, never panic.
pub fn cross_direction_decoding_never_panics(reply: &SwitchMsg, request: &ControllerMsg) {
    let _ = ControllerMsg::decode(reply.encode());
    let _ = SwitchMsg::decode(request.encode());
}
