//! The Drift controller: precision selector and index buffer (paper
//! Section 4.1).
//!
//! The *precision selector* executes the selection algorithm on the
//! statistics the pooling unit produces. In hardware it is a comparator
//! plus a lookup table recording the per-sub-tensor results; here we
//! model its work (comparison count) and its output (index-buffer
//! entries) so the evaluation can substantiate the paper's "no
//! additional computational or area overheads" claim with numbers.
//!
//! The *index buffer* tracks the precision of data at specific
//! positions; the dispatcher consults it to steer each sub-tensor's
//! activations to the systolic array handling its precision pair. One
//! entry is 4 bits: 1 precision bit plus the 3-bit `hc` field that
//! fixes the conversion (Eq. 2 determines `lc`).

use crate::{CoreError, Result};
use drift_quant::policy::Decision;
use serde::{Deserialize, Serialize};

/// Bits per index-buffer entry: 1 precision flag + 3-bit high-clip code.
pub const INDEX_ENTRY_BITS: u64 = 4;

/// An index-buffer entry: the decision for one sub-tensor.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct IndexEntry {
    /// Sub-tensor id within the tensor.
    pub subtensor: usize,
    /// True when the sub-tensor computes at low precision.
    pub low: bool,
    /// The high-end clip `hc` of the conversion (0 when kept high).
    pub hc: u8,
}

/// The hardware model of the precision selector + index buffer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PrecisionController {
    capacity_bits: u64,
    entries: Vec<IndexEntry>,
    comparisons: u64,
}

impl PrecisionController {
    /// Creates a controller whose index buffer holds `capacity_bits`
    /// bits (the default `drift-accel` buffer set gives it 8 KiB).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] for a zero capacity.
    pub fn new(capacity_bits: u64) -> Result<Self> {
        if capacity_bits == 0 {
            return Err(CoreError::InvalidParameter {
                name: "capacity_bits",
                detail: "index buffer must have capacity".to_string(),
            });
        }
        Ok(PrecisionController {
            capacity_bits,
            entries: Vec::new(),
            comparisons: 0,
        })
    }

    /// The default configuration: an 8 KiB index buffer.
    pub fn drift_default() -> Self {
        PrecisionController::new(8 * 1024 * 8).expect("static capacity is valid")
    }

    /// Records the selector's decision for one sub-tensor. The selector
    /// performs two comparisons per sub-tensor — the Eq. 5 range test
    /// (a priority encode of `max|Y|` against the scale) and the Eq. 6
    /// density test — which this model counts.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidParameter`] when the entry would
    /// overflow the index buffer; real hardware sizes the buffer for the
    /// largest layer, so overflow indicates a configuration error.
    pub fn record(&mut self, subtensor: usize, decision: Decision) -> Result<()> {
        let used = self.used_bits() + INDEX_ENTRY_BITS;
        if used > self.capacity_bits {
            return Err(CoreError::InvalidParameter {
                name: "index buffer",
                detail: format!(
                    "{used} bits exceed capacity {}; size the buffer for the layer",
                    self.capacity_bits
                ),
            });
        }
        self.comparisons += 2;
        let (low, hc) = match decision {
            Decision::Keep => (false, 0),
            Decision::Convert(choice) => (true, choice.hc()),
        };
        self.entries.push(IndexEntry { subtensor, low, hc });
        Ok(())
    }

    /// The recorded entries, in record order.
    pub fn entries(&self) -> &[IndexEntry] {
        &self.entries
    }

    /// Looks up the decision for a sub-tensor (what the dispatcher does
    /// per tile). The buffer is addressed by position, as in hardware
    /// (§4.1): the selector records sub-tensor `i` as entry `i`, so the
    /// lookup is one indexed read, checked against the entry's id. An
    /// entry recorded out of order is not found.
    pub fn lookup(&self, subtensor: usize) -> Option<IndexEntry> {
        self.entries
            .get(subtensor)
            .copied()
            .filter(|e| e.subtensor == subtensor)
    }

    /// Comparator operations performed so far.
    pub fn comparisons(&self) -> u64 {
        self.comparisons
    }

    /// Bits currently occupied in the index buffer.
    pub fn used_bits(&self) -> u64 {
        self.entries.len() as u64 * INDEX_ENTRY_BITS
    }

    /// Index-buffer capacity in bits.
    pub fn capacity_bits(&self) -> u64 {
        self.capacity_bits
    }

    /// Clears the buffer for the next layer.
    pub fn reset(&mut self) {
        self.entries.clear();
        self.comparisons = 0;
    }
}

impl Default for PrecisionController {
    fn default() -> Self {
        PrecisionController::drift_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drift_quant::convert::ConversionChoice;
    use drift_quant::precision::Precision;

    fn convert(hc: u8) -> Decision {
        Decision::Convert(
            ConversionChoice::new(Precision::INT8, Precision::INT4, hc, 4 - hc).unwrap(),
        )
    }

    #[test]
    fn capacity_validated() {
        assert!(PrecisionController::new(0).is_err());
        assert!(PrecisionController::new(8).is_ok());
    }

    #[test]
    fn record_and_lookup() {
        let mut c = PrecisionController::drift_default();
        c.record(0, Decision::Keep).unwrap();
        c.record(1, convert(2)).unwrap();
        assert_eq!(c.entries().len(), 2);
        let e = c.lookup(1).unwrap();
        assert!(e.low);
        assert_eq!(e.hc, 2);
        let k = c.lookup(0).unwrap();
        assert!(!k.low);
        assert!(c.lookup(99).is_none());
        // Entry 2 holds sub-tensor 5: position and id disagree.
        c.record(5, Decision::Keep).unwrap();
        assert!(c.lookup(2).is_none());
        assert!(c.lookup(5).is_none());
    }

    #[test]
    fn two_comparisons_per_subtensor() {
        let mut c = PrecisionController::drift_default();
        for i in 0..10 {
            c.record(i, Decision::Keep).unwrap();
        }
        assert_eq!(c.comparisons(), 20);
    }

    #[test]
    fn overflow_is_an_error() {
        // Capacity for exactly two entries.
        let mut c = PrecisionController::new(2 * INDEX_ENTRY_BITS).unwrap();
        c.record(0, Decision::Keep).unwrap();
        c.record(1, Decision::Keep).unwrap();
        assert!(c.record(2, Decision::Keep).is_err());
    }

    #[test]
    fn reset_clears_state() {
        let mut c = PrecisionController::drift_default();
        c.record(0, convert(1)).unwrap();
        c.reset();
        assert_eq!(c.entries().len(), 0);
        assert_eq!(c.comparisons(), 0);
        assert_eq!(c.used_bits(), 0);
    }

    #[test]
    fn default_capacity_holds_large_layers() {
        // 8 KiB at 4 bits/entry = 16384 sub-tensors; enough for a
        // 3136-row ResNet im2col layer or 4096 LLM tokens.
        let c = PrecisionController::default();
        assert!(c.capacity_bits() / INDEX_ENTRY_BITS >= 16_000);
    }
}
