// Package hmc assembles the full Hybrid Memory Cube: the RoRaBaVaCo
// address mapping of Table I, the four full-duplex serial links connecting
// the processor-side controller to the cube, the internal crossbar, and the
// 32 vault controllers (package vault) that do the real work.
package hmc

import (
	"math/bits"

	"camps/internal/config"
)

// Address is a physical byte address within the cube.
type Address uint64

// Location is a fully decoded address.
type Location struct {
	Vault int
	Bank  int
	Row   int64
	Line  int // cache-line index within the row
}

// Mapping implements the configured address interleave. The paper's
// default is RoRaBaVaCo (row-rank-bank-vault-column): the low bits select
// the byte within a row (the column), then the vault, then the bank, then
// the row (HMC has no ranks). Consecutive rows of one bank are therefore
// 512 KB apart in the physical address space, while consecutive 1 KB
// blocks rotate across vaults. RoRaVaBaCo and VaultXOR variants are
// provided for mapping-sensitivity ablations.
type Mapping struct {
	scheme    config.AddressInterleave
	lineShift uint // log2(line bytes)
	lineBits  uint // log2(lines per row)
	vaultBits uint
	bankBits  uint
	rowBits   uint
	linesMask uint64
	vaultMask uint64
	bankMask  uint64
	rowMask   uint64
}

// NewMapping derives the mapping from the configuration.
func NewMapping(cfg config.Config) Mapping {
	m := Mapping{
		scheme:    cfg.HMC.Interleave,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.L3.LineBytes))),
		lineBits:  uint(bits.TrailingZeros64(uint64(cfg.LinesPerRow()))),
		vaultBits: uint(bits.TrailingZeros64(uint64(cfg.HMC.Vaults))),
		bankBits:  uint(bits.TrailingZeros64(uint64(cfg.HMC.Banks()))),
		rowBits:   uint(bits.TrailingZeros64(uint64(cfg.HMC.RowsPerBank))),
	}
	m.linesMask = 1<<m.lineBits - 1
	m.vaultMask = 1<<m.vaultBits - 1
	m.bankMask = 1<<m.bankBits - 1
	m.rowMask = 1<<m.rowBits - 1
	return m
}

// Decode splits a byte address into its location. Addresses beyond the
// cube capacity wrap (the row field simply truncates), matching how real
// controllers mask physical addresses.
func (m Mapping) Decode(addr Address) Location {
	a := uint64(addr) >> m.lineShift // whole-line granularity
	line := a & m.linesMask
	a >>= m.lineBits
	var vlt, bank, row uint64
	switch m.scheme {
	case config.RoRaVaBaCo:
		bank = a & m.bankMask
		a >>= m.bankBits
		vlt = a & m.vaultMask
		a >>= m.vaultBits
		row = a & m.rowMask
	case config.VaultXOR:
		vlt = a & m.vaultMask
		a >>= m.vaultBits
		bank = a & m.bankMask
		a >>= m.bankBits
		row = a & m.rowMask
		vlt ^= row & m.vaultMask
	default: // RoRaBaVaCo
		vlt = a & m.vaultMask
		a >>= m.vaultBits
		bank = a & m.bankMask
		a >>= m.bankBits
		row = a & m.rowMask
	}
	return Location{Vault: int(vlt), Bank: int(bank), Row: int64(row), Line: int(line)}
}
