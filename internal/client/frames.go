package client

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/url"
	"os"
	"strings"
	"sync"
	"time"

	"repro/internal/server"
)

// The frame carrier of the shard sub-queries (DESIGN.md §13): a client
// holds connections to its shard open, each upgraded once with GET
// server.SubUpgradePath, and sends a sub-query as one frame on one of
// them. A frame's deadline is its connection's, and a cancelled or failed
// frame takes its connection with it: only a connection whose last frame
// was answered in full goes back to the pool.

// maxIdleFrameConns is how many idle connections a client keeps for the
// next frames; one more in use at a time dials another.
const maxIdleFrameConns = 8

// frameConn is one held connection.
type frameConn struct {
	c   net.Conn
	br  *bufio.Reader
	buf []byte // the last answer's body
}

// framePool holds a client's connections to its shard.
type framePool struct {
	host string // the Host of the upgrade request
	addr string // host:port to dial; "" when the base URL is not http

	mu     sync.Mutex
	idle   []*frameConn
	closed bool
}

func newFramePool(u *url.URL) *framePool {
	p := &framePool{host: u.Host}
	if u.Scheme == "http" {
		port := u.Port()
		if port == "" {
			port = "80"
		}
		p.addr = net.JoinHostPort(u.Hostname(), port)
	}
	return p
}

// get hands out an idle connection, the most recently used first, or
// dials a new one; reused reports which.
func (p *framePool) get(ctx context.Context) (fc *frameConn, reused bool, err error) {
	p.mu.Lock()
	if n := len(p.idle); n > 0 {
		fc = p.idle[n-1]
		p.idle = p.idle[:n-1]
		p.mu.Unlock()
		return fc, true, nil
	}
	p.mu.Unlock()
	fc, err = p.dial(ctx)
	return fc, false, err
}

// put returns a connection whose frame was answered in full; it is
// closed instead when the pool is full or closed.
func (p *framePool) put(fc *frameConn) {
	if cap(fc.buf) > 64<<10 {
		fc.buf = nil // one outsize answer does not stay with the connection
	}
	p.mu.Lock()
	if !p.closed && len(p.idle) < maxIdleFrameConns {
		p.idle = append(p.idle, fc)
		p.mu.Unlock()
		return
	}
	p.mu.Unlock()
	fc.c.Close()
}

// closeIdle closes the idle connections; with final, every connection
// in use is closed too once its frame is done.
func (p *framePool) closeIdle(final bool) {
	p.mu.Lock()
	idle := p.idle
	p.idle, p.closed = nil, p.closed || final
	p.mu.Unlock()
	for _, fc := range idle {
		fc.c.Close()
	}
}

// dial connects and upgrades a new connection within ctx.
func (p *framePool) dial(ctx context.Context) (*frameConn, error) {
	if p.addr == "" {
		return nil, errors.New("client: sub-queries need an http:// base URL")
	}
	var d net.Dialer
	c, err := d.DialContext(ctx, "tcp", p.addr)
	if err != nil {
		return nil, err
	}
	fc := &frameConn{c: c, br: bufio.NewReader(c)}
	if err := fc.upgrade(ctx, p.host); err != nil {
		c.Close()
		return nil, err
	}
	return fc, nil
}

// upgrade asks the shard to carry frames on the connection.
func (fc *frameConn) upgrade(ctx context.Context, host string) error {
	stop := fc.watch(ctx)
	defer stop()
	_, err := io.WriteString(fc.c, "GET "+server.SubUpgradePath+" HTTP/1.1\r\nHost: "+host+
		"\r\nConnection: Upgrade\r\nUpgrade: "+server.SubUpgradeProtocol+"\r\n\r\n")
	if err != nil {
		return err
	}
	resp, err := http.ReadResponse(fc.br, nil)
	if err != nil {
		return fmt.Errorf("client: frame upgrade: %w", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusSwitchingProtocols || !strings.EqualFold(resp.Header.Get("Upgrade"), server.SubUpgradeProtocol) {
		body, _ := io.ReadAll(io.LimitReader(resp.Body, 512))
		return fmt.Errorf("client: shard refused the frame upgrade: %s: %s", resp.Status, strings.TrimSpace(string(body)))
	}
	return nil
}

// watch puts ctx's deadline on the connection and makes ctx's
// cancellation expire it at once. stop reports false when ctx has ended
// meanwhile: the connection may then fail any moment and must not carry
// another frame.
func (fc *frameConn) watch(ctx context.Context) (stop func() bool) {
	dl, _ := ctx.Deadline()
	fc.c.SetDeadline(dl)
	return context.AfterFunc(ctx, func() { fc.c.SetDeadline(time.Unix(1, 0)) })
}

// roundTrip writes one request and reads its answer's envelope and, when
// it is at most limit bytes, its body into fc.buf. answered reports
// whether any byte of the answer arrived.
func (fc *frameConn) roundTrip(req []byte, limit int64) (status, retryAfter int, body []byte, answered bool, err error) {
	if _, err = fc.c.Write(req); err != nil {
		return 0, 0, nil, false, err
	}
	env, err := fc.br.Peek(server.SubReplyLen)
	if err != nil {
		return 0, 0, nil, fc.br.Buffered() > 0, err
	}
	status, retryAfter, n := server.ParseSubReply(env)
	fc.br.Discard(server.SubReplyLen)
	if n > limit {
		if status == http.StatusOK {
			// Re-asking gets the same answer: silently truncating it would
			// make a valid answer look damaged and burn every attempt on it.
			err = &overLimitError{limit: limit}
		} else {
			err = fmt.Errorf("client: %d answer of %d bytes exceeds the %d-byte limit", status, n, limit)
		}
		return status, retryAfter, nil, true, err
	}
	if int64(cap(fc.buf)) < n {
		fc.buf = make([]byte, n)
	}
	fc.buf = fc.buf[:n]
	if _, err = io.ReadFull(fc.br, fc.buf); err != nil {
		return status, retryAfter, nil, true, err
	}
	return status, retryAfter, fc.buf, true, nil
}

// overLimitError is a 200 whose answer is longer than the client reads.
type overLimitError struct{ limit int64 }

func (e *overLimitError) Error() string {
	return fmt.Sprintf("client: 200 body exceeds the %d-byte answer limit", e.limit)
}

// frameAttempt sends one frame and reads its answer as attempt reads an
// HTTP one. A frame that fails on a reused connection before any byte of
// its answer arrived met a connection the shard had closed — a restart,
// a Shutdown — and is sent once more on a fresh dial, within the same
// attempt: a sub-query is read-only, and the shard is not at fault.
func (c *Client) frameAttempt(ctx context.Context, req []byte, rp reply) (retryable bool, err error) {
	fc, reused, err := c.frames.get(ctx)
	if err != nil {
		return true, err
	}
	stop := fc.watch(ctx)
	status, retryAfter, body, answered, err := fc.roundTrip(req, rp.limit)
	if err != nil && reused && !answered && ctx.Err() == nil && !errors.Is(err, os.ErrDeadlineExceeded) {
		stop()
		fc.c.Close()
		if fc, err = c.frames.dial(ctx); err != nil {
			return true, err
		}
		stop = fc.watch(ctx)
		status, retryAfter, body, _, err = fc.roundTrip(req, rp.limit)
	}
	clean := stop()
	if err != nil {
		fc.c.Close()
		var ol *overLimitError
		return !errors.As(err, &ol), err
	}
	retryable, err = verdict(status, time.Duration(retryAfter)*time.Second, body, rp)
	if clean {
		c.frames.put(fc)
	} else {
		fc.c.Close() // answered, but ctx ended meanwhile and may expire it
	}
	return retryable, err
}
