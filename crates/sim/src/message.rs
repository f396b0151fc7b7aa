//! Messages travelling through a simulated network.

/// A single message (one slot's worth of payload on one coupler or link).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Message {
    /// Unique identifier, assigned at injection time.
    pub id: u64,
    /// Source processor.
    pub source: usize,
    /// Destination processor.
    pub destination: usize,
    /// Slot at which the message was injected.
    pub created_slot: u64,
    /// Slot at which the message was delivered (None while in flight).
    pub delivered_slot: Option<u64>,
    /// Number of optical hops taken so far.
    pub hops: u32,
}

impl Message {
    /// Creates a freshly injected message.
    pub fn new(id: u64, source: usize, destination: usize, created_slot: u64) -> Self {
        Message {
            id,
            source,
            destination,
            created_slot,
            delivered_slot: None,
            hops: 0,
        }
    }

    /// End-to-end latency in slots (delivery slot − creation slot), when
    /// delivered.  A message delivered in the slot after its creation has
    /// latency 1.
    pub fn latency(&self) -> Option<u64> {
        self.delivered_slot
            .map(|d| d.saturating_sub(self.created_slot))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle() {
        let mut m = Message::new(7, 1, 5, 10);
        assert_eq!(m.latency(), None);
        m.hops = 2;
        m.delivered_slot = Some(13);
        assert_eq!(m.latency(), Some(3));
    }

    #[test]
    fn zero_latency_guard() {
        let mut m = Message::new(0, 0, 0, 5);
        m.delivered_slot = Some(5);
        assert_eq!(m.latency(), Some(0));
        // Clock anomalies saturate instead of underflowing.
        m.delivered_slot = Some(3);
        assert_eq!(m.latency(), Some(0));
    }
}
