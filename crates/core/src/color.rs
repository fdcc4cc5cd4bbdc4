//! Color assignment for node kinds and accounts.

use viva_trace::ContainerKind;

/// An sRGB color.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Color {
    /// Red channel.
    pub r: u8,
    /// Green channel.
    pub g: u8,
    /// Blue channel.
    pub b: u8,
}

impl Color {
    /// CSS hex form, `#rrggbb`.
    pub fn hex(self) -> String {
        let mut out = String::with_capacity(7);
        self.push_hex(&mut out);
        out
    }

    /// Appends the CSS hex form, `#rrggbb`, to `out` — [`Color::hex`]
    /// without the allocation, for encoders that write one buffer.
    pub fn push_hex(self, out: &mut String) {
        const DIGITS: &[u8; 16] = b"0123456789abcdef";
        out.push('#');
        for byte in [self.r, self.g, self.b] {
            out.push(char::from(DIGITS[usize::from(byte >> 4)]));
            out.push(char::from(DIGITS[usize::from(byte & 0xf)]));
        }
    }
}

/// Outline/fill color for a container kind.
pub fn kind_color(kind: ContainerKind) -> Color {
    match kind {
        ContainerKind::Host => Color { r: 0x2b, g: 0x6c, b: 0xb0 },
        ContainerKind::Link => Color { r: 0xc0, g: 0x50, b: 0x30 },
        ContainerKind::Router => Color { r: 0x66, g: 0x66, b: 0x66 },
        ContainerKind::Cluster => Color { r: 0x2e, g: 0x86, b: 0x57 },
        ContainerKind::Site => Color { r: 0x7a, g: 0x4f, b: 0xa0 },
        ContainerKind::Root | ContainerKind::Group => Color { r: 0x30, g: 0x30, b: 0x30 },
        ContainerKind::Process => Color { r: 0xb8, g: 0x86, b: 0x0b },
    }
}

/// A categorical palette for per-application (account) series.
pub fn account_color(index: usize) -> Color {
    const PALETTE: [Color; 6] = [
        Color { r: 0xd9, g: 0x5f, b: 0x02 },
        Color { r: 0x1b, g: 0x9e, b: 0x77 },
        Color { r: 0x75, g: 0x70, b: 0xb3 },
        Color { r: 0xe7, g: 0x29, b: 0x8a },
        Color { r: 0x66, g: 0xa6, b: 0x1e },
        Color { r: 0xe6, g: 0xab, b: 0x02 },
    ];
    PALETTE[index % PALETTE.len()]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_formats_lowercase() {
        assert_eq!(Color { r: 255, g: 0, b: 16 }.hex(), "#ff0010");
        for c in [account_color(3), kind_color(ContainerKind::Host), Color { r: 10, g: 171, b: 0 }] {
            assert_eq!(c.hex(), format!("#{:02x}{:02x}{:02x}", c.r, c.g, c.b));
        }
    }

    #[test]
    fn kinds_have_distinct_core_colors() {
        let h = kind_color(ContainerKind::Host);
        let l = kind_color(ContainerKind::Link);
        let r = kind_color(ContainerKind::Router);
        assert_ne!(h, l);
        assert_ne!(h, r);
        assert_ne!(l, r);
    }

    #[test]
    fn account_palette_cycles() {
        assert_eq!(account_color(0), account_color(6));
        assert_ne!(account_color(0), account_color(1));
    }
}
