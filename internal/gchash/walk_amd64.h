// The program walks' view of a round: the instruction records at DI,
// the slot array at R14. Shared by hashand_amd64.s and vwalk_amd64.s.

// The circuit.Instr record: slots A, B, Out and the tag, little-endian
// uint32s, 16 bytes. hashand_amd64.go pins the layout at compile time.
#define INSTR_A 0
#define INSTR_B 4
#define INSTR_OUT 8
#define INSTR_TAG 12
#define TAG_PAIR 30
#define TAG_INDEX 0x3fffffff

// SLOT leaves in reg the address of the slot the uint32 at f(DI) names.
#define SLOT(f, reg) \
	MOVL f(DI), reg; \
	SHLQ $4, reg; \
	ADDQ R14, reg

// TABLE leaves in reg the address of the table of the AND at r(DI),
// tb being the table block's base.
#define TABLE(r, tb, reg) \
	MOVL   (r+INSTR_TAG)(DI), reg; \
	ANDL   $TAG_INDEX, reg; \
	SHLQ   $5, reg; \
	ADDQ   tb, reg
