//! Architectural machine state: registers, flags and the flat guest
//! memory.

use std::fmt;
use std::sync::Mutex;

use wp_isa::{Flags, Image, Reg};

/// Size of the guest physical memory (covers text, data, heap, stack).
pub const MEMORY_BYTES: usize = 16 * 1024 * 1024;

/// Guest memories of dropped machines, kept for the next boots. A fresh
/// 16 MiB allocation lands in whichever allocator arena the booting
/// thread has, and a thread that starts on a new arena keeps one more
/// copy resident for the life of the process.
static SPARE_MEMORY: Mutex<Vec<Vec<u8>>> = Mutex::new(Vec::new());

/// At most this many spare guest memories are kept.
const SPARE_LIMIT: usize = 4;

/// A guest memory access fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct MemFault {
    /// The offending address.
    pub addr: u32,
    /// What the access was.
    pub write: bool,
}

impl fmt::Display for MemFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let kind = if self.write { "store" } else { "load" };
        write!(f, "{kind} fault at {:#010x}", self.addr)
    }
}

impl std::error::Error for MemFault {}

/// The architectural state of the guest core.
pub struct Machine {
    /// General-purpose registers.
    pub regs: [u32; 16],
    /// Condition flags.
    pub flags: Flags,
    /// Program counter (not aliased into `regs`; see `wp-isa` docs).
    pub pc: u32,
    memory: Vec<u8>,
}

impl fmt::Debug for Machine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Machine")
            .field("regs", &self.regs)
            .field("flags", &self.flags)
            .field("pc", &format_args!("{:#010x}", self.pc))
            .finish_non_exhaustive()
    }
}

impl Drop for Machine {
    fn drop(&mut self) {
        let memory = std::mem::take(&mut self.memory);
        if let Ok(mut spare) = SPARE_MEMORY.lock() {
            if spare.len() < SPARE_LIMIT {
                spare.push(memory);
            }
        }
    }
}

impl Machine {
    /// Creates a machine with the image loaded: text and data copied in,
    /// bss zeroed, `sp` at the stack top and `pc` at the entry point.
    #[must_use]
    pub fn boot(image: &Image) -> Machine {
        let spare = SPARE_MEMORY.lock().ok().and_then(|mut spare| spare.pop());
        let mut memory = match spare {
            Some(mut memory) => {
                memory.fill(0);
                memory
            }
            None => vec![0u8; MEMORY_BYTES],
        };
        for (addr, insn) in image.iter_text() {
            let bytes = insn.encode().to_le_bytes();
            memory[addr as usize..addr as usize + 4].copy_from_slice(&bytes);
        }
        let data_base = Image::DATA_BASE as usize;
        memory[data_base..data_base + image.data.len()].copy_from_slice(&image.data);
        let mut machine =
            Machine { regs: [0; 16], flags: Flags::default(), pc: image.entry, memory };
        machine.regs[Reg::SP.index()] = Image::STACK_TOP;
        machine
    }

    /// The `N` bytes at `base`, or `None` past the end of memory.
    #[inline]
    fn bytes<const N: usize>(&self, base: u32) -> Option<&[u8; N]> {
        self.memory.get(base as usize..)?.first_chunk()
    }

    #[inline]
    fn bytes_mut<const N: usize>(&mut self, base: u32) -> Option<&mut [u8; N]> {
        self.memory.get_mut(base as usize..)?.first_chunk_mut()
    }

    /// Reads a 32-bit little-endian word. Unaligned addresses are
    /// rounded down (ARM pre-v6 behaviour, simplified).
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of range.
    #[inline]
    pub fn read_word(&self, addr: u32) -> Result<u32, MemFault> {
        let base = addr & !3;
        let bytes = self.bytes(base).ok_or(MemFault { addr: base, write: false })?;
        Ok(u32::from_le_bytes(*bytes))
    }

    /// Reads a 16-bit halfword.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of range.
    #[inline]
    pub fn read_half(&self, addr: u32) -> Result<u16, MemFault> {
        let base = addr & !1;
        let bytes = self.bytes(base).ok_or(MemFault { addr: base, write: false })?;
        Ok(u16::from_le_bytes(*bytes))
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of range.
    #[inline]
    pub fn read_byte(&self, addr: u32) -> Result<u8, MemFault> {
        let [byte] = *self.bytes(addr).ok_or(MemFault { addr, write: false })?;
        Ok(byte)
    }

    /// Writes a 32-bit word.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of range.
    #[inline]
    pub fn write_word(&mut self, addr: u32, value: u32) -> Result<(), MemFault> {
        let base = addr & !3;
        *self.bytes_mut(base).ok_or(MemFault { addr: base, write: true })? = value.to_le_bytes();
        Ok(())
    }

    /// Writes a halfword.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of range.
    #[inline]
    pub fn write_half(&mut self, addr: u32, value: u16) -> Result<(), MemFault> {
        let base = addr & !1;
        *self.bytes_mut(base).ok_or(MemFault { addr: base, write: true })? = value.to_le_bytes();
        Ok(())
    }

    /// Writes one byte.
    ///
    /// # Errors
    ///
    /// Returns [`MemFault`] if the access is out of range.
    #[inline]
    pub fn write_byte(&mut self, addr: u32, value: u8) -> Result<(), MemFault> {
        *self.bytes_mut(addr).ok_or(MemFault { addr, write: true })? = [value];
        Ok(())
    }

    /// Register read.
    #[inline]
    #[must_use]
    pub fn reg(&self, reg: Reg) -> u32 {
        self.regs[reg.index()]
    }

    /// Register write.
    #[inline]
    pub fn set_reg(&mut self, reg: Reg, value: u32) {
        self.regs[reg.index()] = value;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use wp_isa::{Cond, Insn, Op};

    fn image() -> Image {
        Image {
            text: vec![Insn::new(Cond::Al, Op::Nop)],
            data: vec![0xaa, 0xbb],
            bss_size: 4,
            entry: Image::TEXT_BASE,
            symbols: Default::default(),
        }
    }

    #[test]
    fn boot_loads_image() {
        let m = Machine::boot(&image());
        assert_eq!(m.pc, Image::TEXT_BASE);
        assert_eq!(m.reg(Reg::SP), Image::STACK_TOP);
        // The nop's encoding is readable at the text base.
        let word = m.read_word(Image::TEXT_BASE).unwrap();
        assert_eq!(word, Insn::new(Cond::Al, Op::Nop).encode());
        assert_eq!(m.read_byte(Image::DATA_BASE).unwrap(), 0xaa);
        assert_eq!(m.read_byte(Image::DATA_BASE + 1).unwrap(), 0xbb);
    }

    #[test]
    fn a_reused_guest_memory_boots_zeroed() {
        let dirty: Vec<Machine> = (0..SPARE_LIMIT)
            .map(|_| {
                let mut m = Machine::boot(&image());
                m.write_word(0x20_0000, 0xdead_beef).unwrap();
                m.write_word(Image::STACK_TOP - 4, 7).unwrap();
                m
            })
            .collect();
        drop(dirty);
        for m in (0..SPARE_LIMIT).map(|_| Machine::boot(&image())).collect::<Vec<_>>() {
            assert_eq!(m.read_word(0x20_0000).unwrap(), 0);
            assert_eq!(m.read_word(Image::STACK_TOP - 4).unwrap(), 0);
            assert_eq!(m.read_byte(Image::DATA_BASE).unwrap(), 0xaa);
        }
    }

    #[test]
    fn word_round_trip_and_alignment() {
        let mut m = Machine::boot(&image());
        m.write_word(0x20_0000, 0xdead_beef).unwrap();
        assert_eq!(m.read_word(0x20_0000).unwrap(), 0xdead_beef);
        // Unaligned round down.
        assert_eq!(m.read_word(0x20_0002).unwrap(), 0xdead_beef);
        m.write_half(0x20_0004, 0x1234).unwrap();
        assert_eq!(m.read_half(0x20_0004).unwrap(), 0x1234);
        assert_eq!(m.read_byte(0x20_0004).unwrap(), 0x34);
    }

    #[test]
    fn faults_out_of_range() {
        let mut m = Machine::boot(&image());
        assert!(m.read_word(0xffff_fffc).is_err());
        assert!(m.write_byte(0xffff_ffff, 0).is_err());
        let fault = m.write_word(0xf000_0000, 1).unwrap_err();
        assert!(fault.write);
        assert!(fault.to_string().contains("store fault"));
    }
}
