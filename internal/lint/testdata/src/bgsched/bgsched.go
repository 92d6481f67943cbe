// Package bgsched is a stub of repro/internal/bgsched for analyzer
// golden tests: the pool and owner-handle lifetime surface.
package bgsched

type Class int

const (
	ClassFlush Class = iota
	ClassL0
	ClassDeep
)

type Pool struct{}

func NewPool(workers int) *Pool { return &Pool{} }

func (p *Pool) Workers() int     { return 0 }
func (p *Pool) NewOwner() *Owner { return &Owner{} }
func (p *Pool) Close()           {}

type Owner struct{}

func (o *Owner) Submit(c Class, shard int, fn func()) bool { return false }
func (o *Owner) Close() error                              { return nil }
