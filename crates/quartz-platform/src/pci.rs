//! PCI configuration space of the integrated memory controller.
//!
//! The real thermal-control registers (`THRT_PWR_DIMM_[0:2]`) live in the
//! PCI configuration space of the Xeon E5 integrated memory controller and
//! require privileged access (paper §3.1); Quartz's kernel module programs
//! them on behalf of the user-mode library. We model one IMC device per
//! socket with word-addressed registers.

use std::sync::atomic::{AtomicU32, Ordering};

use crate::error::PlatformError;
use crate::faults::FaultCell;
use crate::topology::SocketId;

/// Config-space offset of `THRT_PWR_DIMM_0`; channels 1 and 2 follow at
/// 4-byte strides.
pub const THRT_PWR_DIMM_BASE: u16 = 0x190;

/// Config-space offset of the (documented but non-functional) separate
/// *read*-bandwidth throttle register.
///
/// The paper's footnote 2 reports that Intel manuals describe separate
/// read/write throttling registers, but "these registers are not yet
/// broadly available in many latest processors" — writes to them take
/// effect in config space but have **no effect on bandwidth** in our
/// model, mirroring that finding.
pub const THRT_PWR_DIMM_READ_BASE: u16 = 0x1a0;

/// Config-space offset of the non-functional *write*-bandwidth throttle
/// register (see [`THRT_PWR_DIMM_READ_BASE`]).
pub const THRT_PWR_DIMM_WRITE_BASE: u16 = 0x1b0;

/// Number of DIMM throttle channels per socket (`THRT_PWR_DIMM_[0:2]`).
pub const DIMM_CHANNELS: usize = 3;

/// Base offsets of the register banks each IMC device decodes, in the
/// order they are laid out in [`PciConfigSpace`]'s register file. Each
/// bank holds `DIMM_CHANNELS` word registers at 4-byte strides.
const BANKS: [u16; 3] = [
    THRT_PWR_DIMM_BASE,
    THRT_PWR_DIMM_READ_BASE,
    THRT_PWR_DIMM_WRITE_BASE,
];

/// Capability token proving the caller went through the kernel module.
///
/// Only [`crate::kmod::KernelModule`] can mint one, so user-mode code
/// cannot write config space directly — the same privilege boundary the
/// real emulator has.
#[derive(Debug)]
pub struct PrivilegeToken(pub(crate) ());

/// The PCI configuration space of every socket's IMC device.
///
/// The register file is fixed, so it is a flat array indexed by the
/// decoded `(socket, bank, channel)`. Writes store with `Release` and
/// reads load with `Acquire`: a transfer that reads a throttle value
/// also sees everything its writer did before programming it. The
/// memory model reads the throttle on every DRAM transfer, so this read
/// takes no lock.
#[derive(Debug)]
pub struct PciConfigSpace {
    sockets: usize,
    /// `regs[(socket * BANKS.len() + bank) * DIMM_CHANNELS + channel]`.
    regs: Box<[AtomicU32]>,
    faults: FaultCell,
}

impl PciConfigSpace {
    /// Creates config space for `sockets` IMC devices with registers at
    /// their reset values (throttle fully open: `0xFFF`).
    pub fn new(sockets: usize) -> Self {
        PciConfigSpace {
            sockets,
            regs: (0..sockets * BANKS.len() * DIMM_CHANNELS)
                .map(|_| AtomicU32::new(0xFFF))
                .collect(),
            faults: FaultCell::new(),
        }
    }

    /// Decodes `offset` on `socket` to its slot in the register file;
    /// `None` when it names no register (a misaligned offset, one between
    /// or past the banks, or a socket that does not exist).
    fn slot(&self, socket: SocketId, offset: u16) -> Option<&AtomicU32> {
        if socket.0 >= self.sockets {
            return None;
        }
        BANKS.iter().enumerate().find_map(|(bank, &base)| {
            let rel = usize::from(offset.checked_sub(base)?);
            (rel % 4 == 0 && rel / 4 < DIMM_CHANNELS).then(|| self.reg(socket.0, bank, rel / 4))
        })
    }

    /// The register of `channel` in bank `bank` (an index into `BANKS`)
    /// on `socket`; all three are in range.
    fn reg(&self, socket: usize, bank: usize, channel: usize) -> &AtomicU32 {
        &self.regs[(socket * BANKS.len() + bank) * DIMM_CHANNELS + channel]
    }

    /// Shares the platform-wide fault cell (called once at build time,
    /// before the space is published behind an `Arc`).
    pub(crate) fn set_fault_cell(&mut self, cell: FaultCell) {
        self.faults = cell;
    }

    /// The fault cell consulted by the thermal-register path.
    pub(crate) fn fault_cell(&self) -> &FaultCell {
        &self.faults
    }

    /// Number of sockets (IMC devices).
    pub fn num_sockets(&self) -> usize {
        self.sockets
    }

    /// Privileged 32-bit config read.
    ///
    /// # Errors
    ///
    /// Fails if the offset does not decode to a register.
    pub fn read32(
        &self,
        _token: &PrivilegeToken,
        socket: SocketId,
        offset: u16,
    ) -> Result<u32, PlatformError> {
        self.slot(socket, offset)
            .map(|r| r.load(Ordering::Acquire))
            .ok_or(PlatformError::BadPciAddress { offset })
    }

    /// Privileged 32-bit config write.
    ///
    /// # Errors
    ///
    /// Fails if the offset does not decode to a register.
    pub fn write32(
        &self,
        _token: &PrivilegeToken,
        socket: SocketId,
        offset: u16,
        value: u32,
    ) -> Result<(), PlatformError> {
        let reg = self
            .slot(socket, offset)
            .ok_or(PlatformError::BadPciAddress { offset })?;
        reg.store(value, Ordering::Release);
        Ok(())
    }

    /// Unprivileged snapshot of a throttle register, used by the memory
    /// model (the hardware side) to apply throttling. Indexes the bank
    /// directly rather than decoding an offset: it runs per transfer.
    pub(crate) fn throttle_value(&self, socket: SocketId, channel: usize) -> Option<u32> {
        if socket.0 >= self.sockets || channel >= DIMM_CHANNELS {
            return None;
        }
        // Bank 0 is `THRT_PWR_DIMM`.
        Some(self.reg(socket.0, 0, channel).load(Ordering::Acquire))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn token() -> PrivilegeToken {
        PrivilegeToken(())
    }

    #[test]
    fn reset_values_are_fully_open() {
        let pci = PciConfigSpace::new(2);
        for s in 0..2 {
            for ch in 0..DIMM_CHANNELS {
                assert_eq!(pci.throttle_value(SocketId(s), ch), Some(0xFFF));
            }
        }
    }

    #[test]
    fn write_then_read() {
        let pci = PciConfigSpace::new(1);
        let t = token();
        pci.write32(&t, SocketId(0), THRT_PWR_DIMM_BASE, 0x200)
            .unwrap();
        assert_eq!(
            pci.read32(&t, SocketId(0), THRT_PWR_DIMM_BASE).unwrap(),
            0x200
        );
        assert_eq!(pci.throttle_value(SocketId(0), 0), Some(0x200));
    }

    #[test]
    fn bad_offset_rejected() {
        let pci = PciConfigSpace::new(1);
        let t = token();
        assert!(matches!(
            pci.read32(&t, SocketId(0), 0x42),
            Err(PlatformError::BadPciAddress { offset: 0x42 })
        ));
        assert!(pci.write32(&t, SocketId(0), 0x42, 1).is_err());
    }

    /// Every register of every bank on every socket round-trips on its
    /// own; every other offset (misaligned, between or past the banks)
    /// and every missing socket decodes to `BadPciAddress`.
    #[test]
    fn register_file_decodes_exactly_the_three_banks() {
        let sockets = 2;
        let pci = PciConfigSpace::new(sockets);
        let t = token();
        let regs: Vec<(usize, u16)> = (0..sockets)
            .flat_map(|s| BANKS.iter().map(move |&base| (s, base)))
            .flat_map(|(s, base)| (0..DIMM_CHANNELS).map(move |ch| (s, base + 4 * ch as u16)))
            .collect();
        assert_eq!(regs.len(), sockets * 3 * DIMM_CHANNELS);
        for (i, &(s, off)) in regs.iter().enumerate() {
            pci.write32(&t, SocketId(s), off, 0x100 + i as u32).unwrap();
        }
        for (i, &(s, off)) in regs.iter().enumerate() {
            assert_eq!(
                pci.read32(&t, SocketId(s), off).unwrap(),
                0x100 + i as u32,
                "socket {s} offset {off:#x}"
            );
        }
        for ch in 0..DIMM_CHANNELS {
            assert_eq!(
                pci.throttle_value(SocketId(1), ch),
                Some(0x100 + 9 + ch as u32)
            );
        }
        assert_eq!(pci.throttle_value(SocketId(0), DIMM_CHANNELS), None);
        assert_eq!(pci.throttle_value(SocketId(sockets), 0), None);

        let bad = |s: usize, offset: u16| {
            matches!(
                pci.read32(&t, SocketId(s), offset),
                Err(PlatformError::BadPciAddress { offset: o }) if o == offset
            ) && matches!(
                pci.write32(&t, SocketId(s), offset, 1),
                Err(PlatformError::BadPciAddress { offset: o }) if o == offset
            )
        };
        for &base in &BANKS {
            // Misaligned, the gap after the bank's last register, and
            // just below the bank.
            for off in [
                base + 1,
                base + 2,
                base + 3,
                base + 4 * DIMM_CHANNELS as u16,
                base - 1,
            ] {
                assert!(bad(0, off), "offset {off:#x}");
            }
        }
        for off in [
            0,
            0x42,
            0x18c,
            THRT_PWR_DIMM_WRITE_BASE + 0x10,
            0x1c0,
            u16::MAX,
        ] {
            assert!(bad(0, off), "offset {off:#x}");
        }
        assert!(bad(sockets, THRT_PWR_DIMM_BASE), "missing socket");
        // The rejected writes changed nothing.
        for (i, &(s, off)) in regs.iter().enumerate() {
            assert_eq!(pci.read32(&t, SocketId(s), off).unwrap(), 0x100 + i as u32);
        }
    }

    #[test]
    fn read_write_registers_exist_but_are_separate() {
        let pci = PciConfigSpace::new(1);
        let t = token();
        pci.write32(&t, SocketId(0), THRT_PWR_DIMM_READ_BASE, 0x100)
            .unwrap();
        // The combined register is untouched: writes to the read/write
        // registers exist but do not throttle (paper footnote 2).
        assert_eq!(pci.throttle_value(SocketId(0), 0), Some(0xFFF));
    }
}
