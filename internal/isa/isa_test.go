package isa

import "testing"

// control lists the opcodes without table semantics: the interpreters
// implement each one with an explicit arm.
var control = map[Op]bool{
	NOP: true, HALT: true, TRAP: true, JMP: true, CALL: true, RET: true,
	SECBEG: true, SECEND: true, ROIBEG: true, ROIEND: true,
}

// TestInfoCoversAllOpcodes is the opcode drift test: every defined opcode
// has a row, and the row states its semantics as exactly one of a kernel,
// a branch condition, a memory form, or membership in the control set
// both interpreters implement by hand. A new opcode without semantics, or
// with two, fails here before an interpreter can skip it silently.
func TestInfoCoversAllOpcodes(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		if !Valid(op) {
			t.Errorf("opcode %d has no metadata", op)
			continue
		}
		info := Info(op)
		forms := 0
		for _, has := range []bool{info.Kernel != nil, info.Cond != nil, info.Mem, control[op]} {
			if has {
				forms++
			}
		}
		if forms != 1 {
			t.Errorf("%v: %d semantic forms (kernel %v, branch %v, mem %v, control %v), want exactly 1",
				op, forms, info.Kernel != nil, info.Cond != nil, info.Mem, control[op])
		}
		switch {
		case info.Kernel != nil && info.Dst == RegNone:
			t.Errorf("%v: kernel without a destination", op)
		case info.DivZero && info.Kernel == nil:
			t.Errorf("%v: DivZero without a kernel", op)
		case info.Cond != nil && (info.SrcA == RegNone || info.SrcB != info.SrcA || info.Dst != RegNone || info.Imm != ImmTarget):
			t.Errorf("%v: branch row is not Ra, Rb of one register file -> Imm", op)
		case info.Mem && info.Imm != ImmOffset:
			t.Errorf("%v: memory row without an offset immediate", op)
		case info.Mem && info.Dst == RegNone && info.SrcA == RegNone:
			t.Errorf("%v: store without a value operand", op)
		}
		if base := info.SrcB; info.Mem {
			if info.Dst != RegNone {
				base = info.SrcA
			}
			if base != RegNone && base != RegInt {
				t.Errorf("%v: base address operand has class %v, want integer", op, base)
			}
		}
	}
	for op := numOps; op != 0; op++ { // up to 255, where Op wraps to 0
		if s := Sem(op); s.Name != "" || s.Kernel != nil || s.Cond != nil || s.Mem {
			t.Errorf("undefined opcode %d has a non-zero row", op)
		}
	}
}

func TestOpNamesUnique(t *testing.T) {
	seen := map[string]Op{}
	for op := Op(0); op < numOps; op++ {
		name := Info(op).Name
		if prev, dup := seen[name]; dup {
			t.Errorf("name %q used by both %d and %d", name, prev, op)
		}
		seen[name] = op
	}
}

func TestOpByNameRoundTrip(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		got, ok := OpByName(op.String())
		if !ok || got != op {
			t.Errorf("OpByName(%q) = %v, %v; want %v", op.String(), got, ok, op)
		}
	}
	if _, ok := OpByName("no-such-op"); ok {
		t.Error("OpByName accepted an unknown mnemonic")
	}
}

func TestValidRejectsOutOfRange(t *testing.T) {
	if Valid(Op(255)) {
		t.Error("Valid(255) = true")
	}
	defer func() {
		if recover() == nil {
			t.Error("Info on invalid opcode did not panic")
		}
	}()
	Info(Op(255))
}

func TestOperandsByShape(t *testing.T) {
	tests := []struct {
		name  string
		in    Instr
		roles []OperandRole
	}{
		{"three-operand ALU", Instr{Op: ADD, Rd: 1, Ra: 2, Rb: 3},
			[]OperandRole{OperandSrcA, OperandSrcB, OperandDst}},
		{"immediate ALU", Instr{Op: ADDI, Rd: 1, Ra: 2},
			[]OperandRole{OperandSrcA, OperandDst}},
		{"load immediate", Instr{Op: LI, Rd: 1},
			[]OperandRole{OperandDst}},
		{"store has two sources, no destination", Instr{Op: ST, Ra: 1, Rb: 2},
			[]OperandRole{OperandSrcA, OperandSrcB}},
		{"branch has two sources", Instr{Op: BLT, Ra: 1, Rb: 2},
			[]OperandRole{OperandSrcA, OperandSrcB}},
		{"jump has none", Instr{Op: JMP}, nil},
		{"call has none", Instr{Op: CALL}, nil},
		{"markers have none", Instr{Op: SECBEG}, nil},
		{"halt has none", Instr{Op: HALT}, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			ops := tt.in.Operands(nil)
			if len(ops) != len(tt.roles) {
				t.Fatalf("got %d operands, want %d", len(ops), len(tt.roles))
			}
			for i, role := range tt.roles {
				if ops[i].Role != role {
					t.Errorf("operand %d role = %v, want %v", i, ops[i].Role, role)
				}
			}
		})
	}
}

func TestOperandClasses(t *testing.T) {
	fadd := Instr{Op: FADD, Rd: 1, Ra: 2, Rb: 3}
	for _, op := range fadd.Operands(nil) {
		if op.Class != RegFloat {
			t.Errorf("fadd operand %v class = %v, want float", op.Role, op.Class)
		}
	}
	// Conversions span both files.
	itof := Instr{Op: ITOF, Rd: 1, Ra: 2}.Operands(nil)
	if itof[0].Class != RegInt || itof[1].Class != RegFloat {
		t.Errorf("itof operand classes = %v, %v", itof[0].Class, itof[1].Class)
	}
	// A float store's value is float, its base address integer.
	fst := Instr{Op: FST, Ra: 1, Rb: 2}.Operands(nil)
	if fst[0].Class != RegFloat || fst[1].Class != RegInt {
		t.Errorf("fst operand classes = %v, %v", fst[0].Class, fst[1].Class)
	}
}

func TestNumOperandsMatchesOperands(t *testing.T) {
	for op := Op(0); op < numOps; op++ {
		in := Instr{Op: op}
		if got, want := in.NumOperands(), len(in.Operands(nil)); got != want {
			t.Errorf("%v: NumOperands = %d, want %d", op, got, want)
		}
	}
}

func TestOperandsAppends(t *testing.T) {
	buf := make([]Operand, 0, 8)
	buf = Instr{Op: ADD}.Operands(buf)
	n := len(buf)
	buf = Instr{Op: MUL}.Operands(buf)
	if len(buf) != 2*n {
		t.Errorf("Operands did not append: %d then %d", n, len(buf))
	}
}

func TestInstrString(t *testing.T) {
	tests := []struct {
		in   Instr
		want string
	}{
		{Instr{Op: ADD, Rd: 1, Ra: 2, Rb: 3}, "add r1, r2, r3"},
		{Instr{Op: FADD, Rd: 0, Ra: 7, Rb: 15}, "fadd f0, f7, f15"},
		{Instr{Op: LD, Rd: 4, Ra: 2, Imm: 16}, "ld r4, r2, 16"},
		{Instr{Op: ST, Ra: 3, Rb: 1, Imm: -2}, "st r3, r1, -2"},
		{Instr{Op: LI, Rd: 9, Imm: 42}, "li r9, 42"},
		{Instr{Op: BEQ, Ra: 1, Rb: 2, Imm: 7}, "beq r1, r2, 7"},
		{Instr{Op: RET}, "ret"},
		{Instr{Op: SECBEG, Imm: 3}, "secbeg 3"},
	}
	for _, tt := range tests {
		if got := tt.in.String(); got != tt.want {
			t.Errorf("String(%v) = %q, want %q", tt.in.Op, got, tt.want)
		}
	}
}

func TestFloatImm(t *testing.T) {
	in := Instr{Op: FLI, Rd: 1, Imm: 4614256656552045848} // bits of 3.141592653589793
	if got := in.FloatImm(); got != 3.141592653589793 {
		t.Errorf("FloatImm = %v", got)
	}
	if got := in.String(); got != "fli f1, 3.141592653589793" {
		t.Errorf("String = %q", got)
	}
}
