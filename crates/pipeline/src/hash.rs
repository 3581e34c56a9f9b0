//! Stable content hashing for cache keys and artifact digests.
//!
//! The cache is *content-addressed*: an artifact's identity is a digest of
//! everything that determines the compilation result (the generated
//! source text's own digest, entry point, pass selection, machine
//! configuration, toolchain generation stamps). The digest must therefore be stable across
//! processes, platforms and toolchain versions — `std::hash` promises none
//! of that, so every digest is a 128-bit FNV-1a: the WCET analyzer's
//! [`Fingerprint`](vericomp_wcet::share::Fingerprint), re-exported here as
//! [`Hasher`]. 128 bits keeps the collision probability for any realistic
//! artifact population (billions) negligible, and the function is
//! trivially deterministic.

use std::fmt;

pub use vericomp_wcet::share::Fingerprint as Hasher;

/// A 128-bit content digest.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest(pub u128);

impl Digest {
    /// Renders the digest as 32 lowercase hex characters (the on-disk
    /// artifact file stem).
    #[must_use]
    pub fn to_hex(self) -> String {
        format!("{:032x}", self.0)
    }

    /// Parses a digest previously rendered with [`Digest::to_hex`].
    #[must_use]
    pub fn from_hex(s: &str) -> Option<Digest> {
        if s.len() != 32 {
            return None;
        }
        u128::from_str_radix(s, 16).ok().map(Digest)
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrip() {
        let d = Digest(0x0123_4567_89ab_cdef_fedc_ba98_7654_3210);
        assert_eq!(Digest::from_hex(&d.to_hex()), Some(d));
        assert_eq!(Digest::from_hex("xyz"), None);
        assert_eq!(Digest::from_hex(""), None);
    }
}
