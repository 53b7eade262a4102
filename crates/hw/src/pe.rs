//! The SPASM processing element — Section IV-D2.
//!
//! A PE couples a double-buffered x-vector buffer, a partial-sum y buffer
//! and a VALU. Its opcode decoder is a look-up table loaded at
//! initialisation with the opcodes of the problem-specific template
//! portfolio; changing the LUT content is what makes the PE support
//! flexible pattern portfolios.

use crate::valu::{OpcodeError, ValuOpcode};

/// A processing element: the opcode LUT plus the VALU datapath.
///
/// Buffer state (x segment, partial sums) lives with the caller — the
/// simulator owns the full vectors and hands the PE 4-wide windows, which
/// matches the `c_idx`/`r_idx` indexed accesses of the hardware.
#[derive(Debug, Clone)]
pub struct Pe {
    lut: Vec<ValuOpcode>,
}

impl Pe {
    /// Compiles a template portfolio into the PE's opcode LUT.
    ///
    /// # Errors
    ///
    /// Returns the first [`OpcodeError`] if some template cannot be
    /// realised on the VALU datapath.
    pub fn new(template_masks: &[u16]) -> Result<Self, OpcodeError> {
        let lut = template_masks
            .iter()
            .map(|&m| ValuOpcode::compile(m))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(Pe { lut })
    }

    /// Number of loaded opcodes.
    pub fn lut_len(&self) -> usize {
        self.lut.len()
    }

    /// The opcode for template `t_idx`.
    ///
    /// # Panics
    ///
    /// Panics if `t_idx` is outside the loaded portfolio — in hardware that
    /// would be a malformed stream.
    pub fn opcode(&self, t_idx: u8) -> ValuOpcode {
        self.lut[t_idx as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spasm_patterns::TemplateSet;

    fn pe() -> Pe {
        let masks: Vec<u16> = TemplateSet::table_v_set(0).masks().collect();
        Pe::new(&masks).unwrap()
    }

    #[test]
    fn lut_loads_full_portfolio() {
        assert_eq!(pe().lut_len(), 16);
    }

    #[test]
    fn rejects_unrealizable_portfolio() {
        assert!(Pe::new(&[0b0111_0001]).is_err()); // 4 cells but 3 in one row
    }

    #[test]
    #[should_panic]
    fn out_of_range_t_idx_panics() {
        let pe = Pe::new(&[0b1111]).unwrap();
        let _ = pe.opcode(5);
    }
}
