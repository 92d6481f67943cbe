// Package client is a stub of repro/internal/client for analyzer golden
// tests: the connection lifetime surface.
package client

type Conn struct{}

func Dial(addr string) (*Conn, error) { return &Conn{}, nil }

func (c *Conn) Ping() error  { return nil }
func (c *Conn) Close() error { return nil }
func (c *Conn) Quit() error  { return nil }
