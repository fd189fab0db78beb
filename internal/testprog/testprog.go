// Package testprog provides tiny sectioned programs used by the analysis
// packages' tests. The flagship fixture is a two-section float pipeline
// with a known amplification structure:
//
//	section 0 "scale":  y = 3·x      (x at addr 0, y at addr 1)
//	section 1 "square": z = y·y + c  (z at addr 2; c at addr 3 is a
//	                                   constant input)
//
// so an SDC of δ in y becomes ≈ 2·y·δ in z, and the final output is z.
package testprog

import (
	"math"

	"fastflip/internal/prog"
	"fastflip/internal/spec"
	"fastflip/internal/vm"
)

// Addresses of the pipeline's buffers.
const (
	AddrX = 0
	AddrY = 1
	AddrZ = 2
	AddrC = 3
	// AddrScratch is untouched memory the pipeline never writes.
	AddrScratch = 4
)

// X and C are the concrete inputs.
const (
	X = 1.5
	C = 0.25
)

// Pipeline builds the two-section fixture. Every buffer is declared live so
// stray writes are caught.
func Pipeline() *spec.Program { return build(false, false) }

// PipelineModified is Pipeline with a semantics-preserving extra
// instruction in the "square" section, for testing section reuse: scale's
// identity is unchanged, square's is not.
func PipelineModified() *spec.Program { return build(true, false) }

// Twice is Pipeline with scale run twice in a row on the same input, so
// its two instances share a reuse key.
func Twice() *spec.Program {
	p := build(false, true)
	p.Name = "testtwice"
	return p
}

func build(modifySquare bool, scaleTwice bool) *spec.Program {
	p := prog.New()

	main := prog.NewFunc("main")
	main.RoiBeg()
	main.SecBeg(0)
	main.Call("scale")
	main.SecEnd(0)
	if scaleTwice {
		main.SecBeg(0)
		main.Call("scale")
		main.SecEnd(0)
	}
	main.SecBeg(1)
	main.Call("square")
	main.SecEnd(1)
	main.RoiEnd()
	main.Halt()
	p.MustAdd(main.MustBuild())

	scale := prog.NewFunc("scale")
	scale.Li(1, 0)
	scale.Fld(0, 1, AddrX)
	scale.Fli(1, 3)
	scale.Fmul(0, 0, 1)
	scale.Li(1, 0)
	scale.Fst(0, 1, AddrY)
	scale.Ret()
	p.MustAdd(scale.MustBuild())

	square := prog.NewFunc("square")
	square.Li(1, 0)
	square.Fld(0, 1, AddrY)
	square.Fmul(0, 0, 0)
	square.Fld(1, 1, AddrC)
	square.Fadd(0, 0, 1)
	if modifySquare {
		square.Fmov(2, 0) // dead move: preserves semantics, changes the hash
	}
	square.Li(1, 0)
	square.Fst(0, 1, AddrZ)
	square.Ret()
	p.MustAdd(square.MustBuild())

	linked, err := p.Link("main")
	if err != nil {
		panic(err)
	}

	x := spec.Buffer{Name: "x", Addr: AddrX, Len: 1, Kind: spec.Float}
	y := spec.Buffer{Name: "y", Addr: AddrY, Len: 1, Kind: spec.Float}
	z := spec.Buffer{Name: "z", Addr: AddrZ, Len: 1, Kind: spec.Float}
	c := spec.Buffer{Name: "c", Addr: AddrC, Len: 1, Kind: spec.Float}
	live := []spec.Buffer{x, y, z, c}

	scaleIO := []spec.InstanceIO{{Inputs: []spec.Buffer{x}, Outputs: []spec.Buffer{y}, Live: live}}
	if scaleTwice {
		scaleIO = append(scaleIO, scaleIO[0])
	}
	return &spec.Program{
		Name:     "testpipe",
		Version:  "none",
		Linked:   linked,
		MemWords: 8,
		Init: func(m *vm.Machine) {
			m.Mem[AddrX] = math.Float64bits(X)
			m.Mem[AddrC] = math.Float64bits(C)
		},
		Sections: []spec.Section{
			{ID: 0, Name: "scale", Instances: scaleIO},
			{ID: 1, Name: "square", Instances: []spec.InstanceIO{
				{Inputs: []spec.Buffer{y, c}, Outputs: []spec.Buffer{z}, Live: live},
			}},
		},
		FinalOutputs: []spec.Buffer{z},
	}
}

// WantY and WantZ are the clean outputs of the pipeline.
func WantY() float64 { return 3 * X }
func WantZ() float64 { return WantY()*WantY() + C }
