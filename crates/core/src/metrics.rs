//! Metric bookkeeping and human-readable formatting.

/// Format a FLOP/s figure with the right SI prefix.
pub fn format_flops(flops: f64) -> String {
    format_si(flops, "FLOPS")
}

/// Format a byte count (binary prefixes).
pub fn format_bytes(bytes: f64) -> String {
    const UNITS: [&str; 6] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB"];
    let mut v = bytes;
    let mut u = 0;
    while v >= 1024.0 && u + 1 < UNITS.len() {
        v /= 1024.0;
        u += 1;
    }
    format!("{v:.2} {}", UNITS[u])
}

/// Format a value with SI prefixes (k, M, G, T, P, E).
pub fn format_si(value: f64, unit: &str) -> String {
    const PREFIX: [&str; 7] = ["", "k", "M", "G", "T", "P", "E"];
    let mut v = value;
    let mut p = 0;
    while v.abs() >= 1000.0 && p + 1 < PREFIX.len() {
        v /= 1000.0;
        p += 1;
    }
    format!("{v:.2} {}{}", PREFIX[p], unit)
}

/// Format a parameter count the way the paper does (e.g. "14.5T").
pub fn format_params(params: u128) -> String {
    let v = params as f64;
    if v >= 1e12 {
        format!("{:.2}T", v / 1e12)
    } else if v >= 1e9 {
        format!("{:.2}B", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.1}M", v / 1e6)
    } else {
        format!("{params}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn si_formatting() {
        assert_eq!(format_flops(1.002e18), "1.00 EFLOPS");
        assert_eq!(format_flops(2.3e12), "2.30 TFLOPS");
        assert_eq!(format_si(999.0, "x"), "999.00 x");
    }

    #[test]
    fn bytes_formatting() {
        assert_eq!(format_bytes(512.0), "512.00 B");
        assert_eq!(format_bytes(2.0 * 1024.0 * 1024.0), "2.00 MiB");
    }

    #[test]
    fn params_formatting() {
        assert_eq!(format_params(174_000_000_000_000), "174.00T");
        assert_eq!(format_params(1_930_000_000_000), "1.93T");
        assert_eq!(format_params(2_600_000_000), "2.60B");
        assert_eq!(format_params(125_000_000), "125.0M");
        assert_eq!(format_params(123), "123");
    }
}
