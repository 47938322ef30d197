//! Deterministic fault injection for the supervisor's transport layer.
//!
//! A [`FaultPlan`] is a scripted set of failures the supervisor applies
//! to its *own* side of each slot's link — kill the host after N events,
//! corrupt or truncate the bytes of a specific outbound frame, swallow
//! snapshot acks — alike on a worker process and on an in-memory host.
//! Because every rule triggers at a deterministic point in the event
//! sequence, recovery tests can pin exact outcomes (which steps replay,
//! when the budget exhausts) instead of sampling luck.
//! An empty plan (the default) injects nothing and costs two integer
//! compares per frame.

/// What to do to an outbound frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Flip one payload bit after the CRC is computed — the receiver
    /// must detect [`kalman_wire::WireError::BadCrc`] and die.
    Corrupt,
    /// Send only a prefix of the frame, then sever the connection — the
    /// receiver must detect truncation, never stall on a partial frame.
    Truncate,
}

impl FrameFault {
    /// The bytes of one frame as this fault leaves them.
    pub(crate) fn mangle(self, kind: u8, payload: &[u8]) -> Vec<u8> {
        let mut bytes = kalman_wire::frame_bytes(kind, payload);
        match self {
            FrameFault::Corrupt => {
                let last = bytes.len() - 1;
                bytes[last] ^= 0x01;
            }
            FrameFault::Truncate => bytes.truncate((bytes.len() / 2).max(1)),
        }
        bytes
    }
}

/// A scripted set of deterministic transport failures.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// `(slot, events)`: kill the slot's host right after the
    /// `events`-th event frame (1-based, counted per slot over the
    /// slot's lifetime, replays included) is delivered.
    pub kill_after_events: Vec<(usize, u64)>,
    /// `(slot, frame, fault)`: apply `fault` to the `frame`-th frame
    /// (1-based, counted per connection; the configuration frame is the
    /// first) sent to the slot.
    pub frame_faults: Vec<(usize, u64, FrameFault)>,
    /// `(slot, count)`: swallow the slot's next `count` snapshot acks —
    /// the supervisor behaves as if the worker never acked, so its log
    /// keeps growing and recovery replays a longer suffix.
    pub delay_acks: Vec<(usize, u32)>,
}

impl FaultPlan {
    /// A plan that injects nothing.
    pub fn none() -> FaultPlan {
        FaultPlan::default()
    }

    /// `true` if the plan says to kill `slot`'s worker now (consumes the
    /// rule).
    pub(crate) fn take_kill(&mut self, slot: usize, events_delivered: u64) -> bool {
        if let Some(i) = self
            .kill_after_events
            .iter()
            .position(|&(s, n)| s == slot && n == events_delivered)
        {
            self.kill_after_events.swap_remove(i);
            return true;
        }
        false
    }

    /// The fault to apply to this outbound frame, if any (consumes the
    /// rule).
    pub(crate) fn take_frame_fault(&mut self, slot: usize, frame: u64) -> Option<FrameFault> {
        let i = self
            .frame_faults
            .iter()
            .position(|&(s, n, _)| s == slot && n == frame)?;
        let (_, _, fault) = self.frame_faults.swap_remove(i);
        Some(fault)
    }

    /// `true` if this slot's next snapshot ack should be swallowed
    /// (decrements the rule's counter).
    pub(crate) fn take_ack_delay(&mut self, slot: usize) -> bool {
        if let Some(i) = self
            .delay_acks
            .iter()
            .position(|&(s, n)| s == slot && n > 0)
        {
            self.delay_acks[i].1 -= 1;
            if self.delay_acks[i].1 == 0 {
                self.delay_acks.swap_remove(i);
            }
            return true;
        }
        false
    }
}
