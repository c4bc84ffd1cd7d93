//! # gcln-baselines — the comparison system of Table 4
//!
//! [`cln`]: the ungated, template-based CLN (CLN2INV) for the Table 4
//! stability study, which `gcln table4` runs against the G-CLN.

pub mod cln;
