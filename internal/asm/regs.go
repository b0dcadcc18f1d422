package asm

import "strings"

// Reg identifies a machine register. The zero value RegNone means "no
// register".
type Reg uint8

// General-purpose registers. The 32-bit registers are the primary domain of
// the paper (x86); 64-bit, 16-bit and 8-bit names are accepted by the parser
// so that foreign listings (e.g. the paper's rorx edx,esi / inc rdi example)
// can be represented.
const (
	RegNone Reg = iota

	// 32-bit general purpose registers, in x86 encoding order.
	EAX
	ECX
	EDX
	EBX
	ESP
	EBP
	ESI
	EDI

	// 64-bit general purpose registers.
	RAX
	RCX
	RDX
	RBX
	RSP
	RBP
	RSI
	RDI
	R8
	R9
	R10
	R11
	R12
	R13
	R14
	R15

	// 16-bit registers.
	AX
	CX
	DX
	BX
	SP
	BP
	SI
	DI

	// 8-bit registers.
	AL
	CL
	DL
	BL
	AH
	CH
	DH
	BH

	numRegs
)

var regNames = [numRegs]string{
	RegNone: "<none>",
	EAX:     "eax", ECX: "ecx", EDX: "edx", EBX: "ebx",
	ESP: "esp", EBP: "ebp", ESI: "esi", EDI: "edi",
	RAX: "rax", RCX: "rcx", RDX: "rdx", RBX: "rbx",
	RSP: "rsp", RBP: "rbp", RSI: "rsi", RDI: "rdi",
	R8: "r8", R9: "r9", R10: "r10", R11: "r11",
	R12: "r12", R13: "r13", R14: "r14", R15: "r15",
	AX: "ax", CX: "cx", DX: "dx", BX: "bx",
	SP: "sp", BP: "bp", SI: "si", DI: "di",
	AL: "al", CL: "cl", DL: "dl", BL: "bl",
	AH: "ah", CH: "ch", DH: "dh", BH: "bh",
}

var regByName = func() map[string]Reg {
	m := make(map[string]Reg, numRegs)
	for r := Reg(1); r < numRegs; r++ {
		m[regNames[r]] = r
	}
	return m
}()

// String returns the conventional lower-case register name.
func (r Reg) String() string {
	if r >= numRegs {
		return "<bad reg>"
	}
	return regNames[r]
}

// Valid reports whether r is one of the registers the package defines
// (LookupReg(r.String()) == r), which excludes RegNone and the values only
// malformed input carries.
func (r Reg) Valid() bool { return r > RegNone && r < numRegs }

// LookupReg returns the register with the given (case-insensitive) name, or
// RegNone if the name is not a known register.
func LookupReg(name string) Reg {
	return regByName[strings.ToLower(name)]
}

// Is32 reports whether r is one of the eight 32-bit general-purpose
// registers, the register class handled by the x86-32 encoder.
func (r Reg) Is32() bool { return r >= EAX && r <= EDI }

// Num32 returns the x86 encoding number (0-7) of a 32-bit register.
// It panics if r is not a 32-bit register.
func (r Reg) Num32() int {
	if !r.Is32() {
		panic("asm: Num32 on non-32-bit register " + r.String())
	}
	return int(r - EAX)
}

// Reg32 returns the 32-bit register with x86 encoding number n (0-7).
func Reg32(n int) Reg {
	if n < 0 || n > 7 {
		panic("asm: Reg32 number out of range")
	}
	return EAX + Reg(n)
}

// GP32 lists the eight 32-bit general-purpose registers in encoding order.
// Callers must not mutate the returned slice.
func GP32() []Reg {
	return []Reg{EAX, ECX, EDX, EBX, ESP, EBP, ESI, EDI}
}

// Is8 reports whether r is one of the eight 8-bit registers.
func (r Reg) Is8() bool { return r >= AL && r <= BH }

// Num8 returns the x86 encoding number (0-7) of an 8-bit register.
// It panics if r is not an 8-bit register.
func (r Reg) Num8() int {
	if !r.Is8() {
		panic("asm: Num8 on non-8-bit register " + r.String())
	}
	return int(r - AL)
}

// Reg8 returns the 8-bit register with x86 encoding number n (0-7):
// al, cl, dl, bl, ah, ch, dh, bh.
func Reg8(n int) Reg {
	if n < 0 || n > 7 {
		panic("asm: Reg8 number out of range")
	}
	return AL + Reg(n)
}

// Low8 returns the low 8-bit alias of a 32-bit register (eax -> al), or
// RegNone when the register has no byte alias (esp, ebp, esi, edi).
func (r Reg) Low8() Reg {
	if r >= EAX && r <= EBX {
		return AL + (r - EAX)
	}
	return RegNone
}
