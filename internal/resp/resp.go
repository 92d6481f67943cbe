// Package resp implements the subset of the RESP2 wire protocol
// (REdis Serialization Protocol, version 2) that triadserver speaks:
// clients send commands as arrays of bulk strings (or space-separated
// inline lines, the telnet convenience), servers answer with simple
// strings, errors, integers, bulk strings and arrays.
//
// The codec is written for untrusted input: every length is bounded
// before allocation, every line is bounded before buffering, recursion
// depth is capped, and malformed bytes produce a *ProtocolError — never
// a panic. Truncated streams surface the underlying io error
// (io.EOF / io.ErrUnexpectedEOF), which is how a server tells "client
// hung up" apart from "client spoke garbage".
package resp

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
)

// Wire limits. Inputs declaring anything larger are rejected before any
// allocation happens, so a hostile client cannot make the server reserve
// memory it will never send.
const (
	// MaxBulkLen bounds one bulk string (a key, value or dump).
	MaxBulkLen = 16 << 20
	// MaxArrayLen bounds one array (command arity or reply elements).
	MaxArrayLen = 1 << 20
	// MaxCommandBytes bounds one whole command's declared payload (the
	// sum of its bulk lengths): per-element limits alone would still let
	// a hostile client buffer MaxArrayLen × MaxBulkLen in the server.
	MaxCommandBytes = 64 << 20
	// MaxInlineLen bounds one inline command line.
	MaxInlineLen = 64 << 10
	// maxReplyDepth bounds reply nesting; our replies nest one level.
	maxReplyDepth = 8
	// maxIntLine bounds the digits of a length/integer line.
	maxIntLine = 32
)

// ProtocolError reports malformed wire data. A server should answer it
// with an error reply and close the connection, as redis does.
type ProtocolError struct{ Reason string }

// Error implements error.
func (e *ProtocolError) Error() string { return "resp: protocol error: " + e.Reason }

func protoErrf(format string, args ...any) error {
	return &ProtocolError{Reason: fmt.Sprintf(format, args...)}
}

// Type tags a reply Value with its RESP2 type byte.
type Type byte

// The five RESP2 reply types.
const (
	TypeSimple Type = '+'
	TypeError  Type = '-'
	TypeInt    Type = ':'
	TypeBulk   Type = '$'
	TypeArray  Type = '*'
)

// Value is one decoded reply. Exactly one of the payload fields is
// meaningful for each Type; Null marks the RESP2 null bulk ($-1) and
// null array (*-1).
type Value struct {
	Type  Type
	Str   []byte // Simple, Error and Bulk payload
	Int   int64  // Int payload
	Null  bool   // null bulk / null array
	Elems []Value
}

// Simple returns a simple-string value (e.g. "OK").
func Simple(s string) Value { return Value{Type: TypeSimple, Str: []byte(s)} }

// Error returns an error value (e.g. "ERR unknown command").
func Error(s string) Value { return Value{Type: TypeError, Str: []byte(s)} }

// Int returns an integer value.
func Int(n int64) Value { return Value{Type: TypeInt, Int: n} }

// Bulk returns a bulk-string value; Bulk(nil) is the empty bulk, not the
// null bulk — use NullBulk for "no such key".
func Bulk(b []byte) Value { return Value{Type: TypeBulk, Str: b} }

// NullBulk returns the RESP2 null bulk string ($-1), the "absent" reply.
func NullBulk() Value { return Value{Type: TypeBulk, Null: true} }

// Array returns an array value over elems.
func Array(elems ...Value) Value { return Value{Type: TypeArray, Elems: elems} }

// IsError reports whether v is an error reply.
func (v Value) IsError() bool { return v.Type == TypeError }

// Text renders the payload as a string (Simple/Error/Bulk types).
func (v Value) Text() string { return string(v.Str) }

// Reader decodes commands (server side) and replies (client side) from a
// byte stream. Not safe for concurrent use.
type Reader struct {
	br *bufio.Reader
}

// NewReader returns a Reader over r.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 32<<10)}
}

// readLine reads one CRLF-terminated line of at most max payload bytes
// and returns the payload (a fresh slice, CRLF stripped). When lenient,
// a bare LF terminator is accepted (inline commands, telnet clients).
func (r *Reader) readLine(max int, lenient bool) ([]byte, error) {
	var buf []byte
	for {
		frag, err := r.br.ReadSlice('\n')
		// frag aliases the bufio buffer; append copies it out before the
		// next read can clobber it.
		buf = append(buf, frag...)
		if err == bufio.ErrBufferFull {
			if len(buf) > max+2 {
				return nil, protoErrf("line exceeds %d bytes", max)
			}
			continue
		}
		if err != nil {
			if err == io.EOF && len(buf) > 0 {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
		break
	}
	if len(buf) > max+2 {
		return nil, protoErrf("line exceeds %d bytes", max)
	}
	buf = buf[:len(buf)-1] // strip LF
	if len(buf) > 0 && buf[len(buf)-1] == '\r' {
		return buf[:len(buf)-1], nil
	}
	if lenient {
		return buf, nil
	}
	return nil, protoErrf("expected CRLF line terminator")
}

// readInt reads the remainder of a length/integer line.
func (r *Reader) readInt() (int64, error) {
	line, err := r.readLine(maxIntLine, false)
	if err != nil {
		return 0, err
	}
	if len(line) == 0 {
		return 0, protoErrf("empty integer")
	}
	n, err := strconv.ParseInt(string(line), 10, 64)
	if err != nil {
		return 0, protoErrf("bad integer %q", line)
	}
	return n, nil
}

// ReadCommand reads one client command: either a RESP array of bulk
// strings or an inline (space-separated) line. Empty arrays and blank
// inline lines are skipped, per redis. The returned slices are freshly
// allocated and owned by the caller.
func (r *Reader) ReadCommand() ([][]byte, error) {
	for {
		b, err := r.br.ReadByte()
		if err != nil {
			return nil, err
		}
		if b != '*' {
			if err := r.br.UnreadByte(); err != nil {
				return nil, err
			}
			line, err := r.readLine(MaxInlineLen, true)
			if err != nil {
				return nil, err
			}
			fields := bytes.Fields(line)
			if len(fields) == 0 {
				continue
			}
			return fields, nil
		}
		n, err := r.readInt()
		if err != nil {
			return nil, err
		}
		if n < 0 || n > MaxArrayLen {
			return nil, protoErrf("invalid multibulk length %d", n)
		}
		if n == 0 {
			continue
		}
		// Cap the headroom allocation: the declared arity is untrusted
		// until the elements actually arrive.
		args := make([][]byte, 0, min(n, 1024))
		var total int64
		for i := int64(0); i < n; i++ {
			arg, err := r.readBulk()
			if err != nil {
				return nil, err
			}
			if total += int64(len(arg)); total > MaxCommandBytes {
				return nil, protoErrf("command exceeds %d payload bytes", MaxCommandBytes)
			}
			args = append(args, arg)
		}
		return args, nil
	}
}

// readBulk reads one $-prefixed bulk string (null bulks are not valid
// inside commands).
func (r *Reader) readBulk() ([]byte, error) {
	b, err := r.br.ReadByte()
	if err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if b != '$' {
		return nil, protoErrf("expected bulk string ('$'), got %q", b)
	}
	n, err := r.readInt()
	if err != nil {
		return nil, err
	}
	if n < 0 || n > MaxBulkLen {
		return nil, protoErrf("invalid bulk length %d", n)
	}
	return r.readBulkBody(n)
}

// readBulkBody reads n payload bytes plus the trailing CRLF.
func (r *Reader) readBulkBody(n int64) ([]byte, error) {
	buf := make([]byte, n)
	if _, err := io.ReadFull(r.br, buf); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	var crlf [2]byte
	if _, err := io.ReadFull(r.br, crlf[:]); err != nil {
		if err == io.EOF {
			return nil, io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crlf[0] != '\r' || crlf[1] != '\n' {
		return nil, protoErrf("bulk string not CRLF-terminated")
	}
	return buf, nil
}

// ReadReply reads one server reply (client side).
func (r *Reader) ReadReply() (Value, error) {
	return r.readValue(0)
}

func (r *Reader) readValue(depth int) (Value, error) {
	if depth > maxReplyDepth {
		return Value{}, protoErrf("reply nesting exceeds %d", maxReplyDepth)
	}
	b, err := r.br.ReadByte()
	if err != nil {
		return Value{}, err
	}
	switch Type(b) {
	case TypeSimple, TypeError:
		line, err := r.readLine(MaxInlineLen, false)
		if err != nil {
			return Value{}, err
		}
		return Value{Type: Type(b), Str: line}, nil
	case TypeInt:
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeInt, Int: n}, nil
	case TypeBulk:
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return NullBulk(), nil
		}
		if n < 0 || n > MaxBulkLen {
			return Value{}, protoErrf("invalid bulk length %d", n)
		}
		body, err := r.readBulkBody(n)
		if err != nil {
			return Value{}, err
		}
		return Value{Type: TypeBulk, Str: body}, nil
	case TypeArray:
		n, err := r.readInt()
		if err != nil {
			return Value{}, err
		}
		if n == -1 {
			return Value{Type: TypeArray, Null: true}, nil
		}
		if n < 0 || n > MaxArrayLen {
			return Value{}, protoErrf("invalid array length %d", n)
		}
		elems := make([]Value, 0, min(n, 1024))
		for i := int64(0); i < n; i++ {
			e, err := r.readValue(depth + 1)
			if err != nil {
				return Value{}, err
			}
			elems = append(elems, e)
		}
		return Value{Type: TypeArray, Elems: elems}, nil
	default:
		return Value{}, protoErrf("unknown reply type %q", b)
	}
}

// Writer encodes commands and replies onto a buffered stream. Callers
// must Flush to push buffered bytes to the connection. Not safe for
// concurrent use.
type Writer struct {
	bw  *bufio.Writer
	err error // first write error; subsequent writes are no-ops
}

// NewWriter returns a Writer over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{bw: bufio.NewWriterSize(w, 32<<10)}
}

// Err reports the first write error, if any.
func (w *Writer) Err() error { return w.err }

func (w *Writer) setErr(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Flush pushes buffered bytes to the underlying writer.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	w.setErr(w.bw.Flush())
	return w.err
}

// WriteCommand encodes one command as an array of bulk strings
// (client side).
func (w *Writer) WriteCommand(args ...[]byte) error {
	w.writeHeader('*', int64(len(args)))
	for _, a := range args {
		w.writeBulkBytes(a)
	}
	return w.err
}

func (w *Writer) writeHeader(t byte, n int64) {
	if w.err != nil {
		return
	}
	var buf [maxIntLine]byte
	w.setErr(w.bw.WriteByte(t))
	b := strconv.AppendInt(buf[:0], n, 10)
	_, err := w.bw.Write(b)
	w.setErr(err)
	w.crlf()
}

func (w *Writer) crlf() {
	if w.err != nil {
		return
	}
	_, err := w.bw.WriteString("\r\n")
	w.setErr(err)
}

func (w *Writer) writeBulkBytes(b []byte) {
	w.writeHeader('$', int64(len(b)))
	if w.err != nil {
		return
	}
	_, err := w.bw.Write(b)
	w.setErr(err)
	w.crlf()
}

// writeLine writes one line-framed payload, replacing CR/LF bytes with
// spaces so a hostile payload cannot desynchronize the framing.
func (w *Writer) writeLine(t byte, s []byte) {
	if w.err != nil {
		return
	}
	w.setErr(w.bw.WriteByte(t))
	for _, c := range s {
		if c == '\r' || c == '\n' {
			c = ' '
		}
		if w.err == nil {
			w.setErr(w.bw.WriteByte(c))
		}
	}
	w.crlf()
}

// WriteBulk writes a bulk-string reply.
func (w *Writer) WriteBulk(b []byte) error {
	w.writeBulkBytes(b)
	return w.err
}

// WriteValue encodes one reply value; it is the encoder for every reply
// type.
func (w *Writer) WriteValue(v Value) error {
	switch v.Type {
	case TypeSimple:
		w.writeLine('+', v.Str)
	case TypeError:
		w.writeLine('-', v.Str)
	case TypeInt:
		w.writeHeader(':', v.Int)
	case TypeBulk:
		if v.Null {
			w.writeHeader('$', -1)
		} else {
			w.writeBulkBytes(v.Str)
		}
	case TypeArray:
		if v.Null {
			w.writeHeader('*', -1)
		} else {
			w.writeHeader('*', int64(len(v.Elems)))
			for _, e := range v.Elems {
				if err := w.WriteValue(e); err != nil {
					return err
				}
			}
		}
	default:
		w.setErr(protoErrf("cannot encode value type %q", byte(v.Type)))
	}
	return w.err
}
