// Package frameconn carries newline-delimited frames over TCP for both of
// the repository's wires, the dist job protocol and the qfixd daemon
// protocol. It owns what their servers and clients share: the accept
// loop and its teardown (Registry), one size cap on every frame read
// (Reader), and one lock-and-deadline frame write (Writer). What a frame
// means, and which version of it a peer speaks, stays with the caller.
package frameconn

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"sync"
	"time"
)

// MaxFrame bounds one frame. A job or a repaired log of a million
// statements is well under it; a peer that streams more without a
// newline is broken or hostile, and the reader gives up on it rather
// than buffer without limit.
const MaxFrame = 64 << 20

// ErrFrameTooLong is what Reader.Next returns past MaxFrame.
var ErrFrameTooLong = fmt.Errorf("frame longer than %d MiB", MaxFrame>>20)

// WriteTimeout bounds one frame write. A frame normally lands in the
// socket buffer at once; a write this slow means the peer stopped
// draining without closing the connection, and it costs the connection
// rather than wedging the writer's lock for good.
const WriteTimeout = time.Minute

// Registry runs a server's accept loop and tracks the connections it
// serves, so that Close can tear all of them down. The zero value is
// ready to use.
type Registry struct {
	mu     sync.Mutex
	ln     net.Listener          // guarded by mu
	conns  map[net.Conn]struct{} // guarded by mu
	closed bool                  // guarded by mu
}

// Serve accepts connections on l and runs handle on each in a goroutine
// of its own, closing the connection when handle returns. It blocks
// until StopAccepting or Close (then it returns nil) or until the
// listener fails. On a registry already closed it returns net.ErrClosed.
func (r *Registry) Serve(l net.Listener, handle func(net.Conn)) error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return net.ErrClosed
	}
	r.ln = l
	if r.conns == nil {
		r.conns = make(map[net.Conn]struct{})
	}
	r.mu.Unlock()

	//qfix:ctx-ok exits via StopAccepting/Close: the closed listener fails Accept
	for {
		conn, err := l.Accept()
		// Registration shares the critical section that checks for
		// shutdown: a connection accepted just as Close runs would
		// otherwise land in conns after Close's teardown iteration and
		// never be closed.
		r.mu.Lock()
		if r.closed {
			r.mu.Unlock()
			if err == nil {
				conn.Close()
			}
			return nil
		}
		if err != nil {
			r.mu.Unlock()
			return err
		}
		r.conns[conn] = struct{}{}
		r.mu.Unlock()
		go func() {
			handle(conn)
			conn.Close()
			r.mu.Lock()
			delete(r.conns, conn)
			r.mu.Unlock()
		}()
	}
}

// StopAccepting closes the listener and leaves the connections being
// served alone; a connection accepted meanwhile is closed unserved.
func (r *Registry) StopAccepting() (err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.closed = true
	if r.ln != nil {
		err = r.ln.Close()
		r.ln = nil
	}
	return err
}

// Close stops accepting and closes every connection being served.
func (r *Registry) Close() error {
	err := r.StopAccepting()
	r.mu.Lock()
	defer r.mu.Unlock()
	for conn := range r.conns {
		conn.Close()
	}
	return err
}

// Reader reads the frames of one connection.
type Reader struct {
	br  *bufio.Reader
	buf []byte
}

// NewReader reads frames from r. Its buffer holds a typical repaired
// log whole, so most frames come in one read and without a copy.
func NewReader(r io.Reader) *Reader {
	return &Reader{br: bufio.NewReaderSize(r, 64<<10)}
}

// Next returns the next frame without its newline. The bytes are the
// caller's only until the next call. Past MaxFrame bytes without a
// newline it fails with ErrFrameTooLong; at the end of the stream, and
// on a last line with no newline, with io.EOF.
func (r *Reader) Next() ([]byte, error) {
	r.buf = r.buf[:0]
	err := bufio.ErrBufferFull
	for err == bufio.ErrBufferFull {
		var chunk []byte
		chunk, err = r.br.ReadSlice('\n')
		if err == nil && len(r.buf) == 0 {
			return chunk[:len(chunk)-1], nil
		}
		n := len(r.buf) + len(chunk)
		if n > MaxFrame+1 {
			return nil, ErrFrameTooLong
		}
		if n > cap(r.buf) {
			// Doubling, but never past the cap: an endless line costs
			// about two caps of memory, not the five of append's growth.
			grown := make([]byte, len(r.buf), min(max(2*cap(r.buf), n), MaxFrame+1))
			copy(grown, r.buf)
			r.buf = grown
		}
		r.buf = append(r.buf, chunk...)
	}
	if err != nil {
		return nil, err
	}
	return r.buf[:len(r.buf)-1], nil
}

// Decode reads the next frame into v, as json.Unmarshal does.
func (r *Reader) Decode(v any) error {
	line, err := r.Next()
	if err != nil {
		return err
	}
	return json.Unmarshal(line, v)
}

// Writer writes whole frames to one connection, one at a time, each
// within WriteTimeout. A failed write closes the connection: a frame
// cut short would leave the peer waiting on an answer that never comes,
// and the closed connection breaks the reading side's loop too.
type Writer struct {
	conn net.Conn
	mu   sync.Mutex
	enc  *json.Encoder // guarded by mu
}

// NewWriter writes frames to conn. escapeHTML is what Encode does with
// `<`, `>` and `&` in strings: json.Marshal escapes them, a wire whose
// strings are SQL may keep `<=` as two bytes.
func NewWriter(conn net.Conn, escapeHTML bool) *Writer {
	enc := json.NewEncoder(conn)
	enc.SetEscapeHTML(escapeHTML)
	return &Writer{conn: conn, enc: enc}
}

// Encode writes v as one JSON frame.
func (w *Writer) Encode(v any) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
	return w.closeOnError(w.enc.Encode(v))
}

// Write writes one pre-encoded frame, given in pieces that end with its
// newline, in one gathered write.
func (w *Writer) Write(frame ...[]byte) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.conn.SetWriteDeadline(time.Now().Add(WriteTimeout))
	bufs := net.Buffers(frame)
	_, err := bufs.WriteTo(w.conn)
	return w.closeOnError(err)
}

func (w *Writer) closeOnError(err error) error {
	if err != nil {
		w.conn.Close()
	}
	return err
}
