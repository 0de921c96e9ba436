// Package logic is a minimal stand-in for hoyan/internal/logic used by
// the factorymix golden tests. The analyzer matches by package and type
// name, so this stub exercises the same shapes without the real arena.
package logic

// Var identifies a boolean variable.
type Var uint32

// F is a formula handle bound to the Factory that built it.
type F int32

// Factory owns a formula arena.
type Factory struct{ nodes []int64 }

// NewFactory returns an empty factory.
func NewFactory() *Factory { return &Factory{} }

func (f *Factory) Var(v Var) F  { return F(v) }
func (f *Factory) And(a, b F) F { return a }
func (f *Factory) Or(a, b F) F  { return a }
func (f *Factory) Not(a F) F    { return a }

// Portable is a factory-independent formula snapshot.
type Portable struct{}

// Export snapshots x into a factory-independent form.
func (f *Factory) Export(x F) *Portable { return &Portable{} }

// Import rebuilds the snapshot inside f and returns the new handle.
func (p *Portable) Import(f *Factory) F { return 0 }

// ImportRoots rebuilds the named roots inside f.
func (p *Portable) ImportRoots(f *Factory, which []int) F { return 0 }
