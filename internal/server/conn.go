package server

import (
	"bufio"
	"context"
	"io"
	"math"
	"net"
	"net/http"
	"strings"
	"time"
)

// The frame carrier (DESIGN.md §13). A coordinator sends its sub-queries
// as frames on connections it holds open: it upgrades a connection on
// this server's one port with GET SubUpgradePath, and from then on the
// connection carries one frame at a time — a request in its envelope,
// then the answer in its own (frame.go) — each through the pipeline an
// HTTP query runs (run). A held connection is served by the one goroutine
// net/http started for its upgrade request, and costs none while idle.
//
// The route sits outside /v1: a wrapper around the query routes'
// ResponseWriter (a timing middleware) would stand between the upgrade
// and its hijack.

const (
	// SubUpgradePath is the route a connection upgrades to carry frames on.
	SubUpgradePath = "/shard/frames"
	// SubUpgradeProtocol is the Upgrade token of a frame connection; its
	// version is SubFrameVersion.
	SubUpgradeProtocol = "tabmine-sub/3"
)

// heldConn is one frame connection. busy is set while a frame is read or
// answered; both it and Server.held are guarded by Server.heldMu.
type heldConn struct {
	c    net.Conn
	busy bool
}

// handleFrames upgrades the request's connection and serves frames on it
// until the peer closes it, a frame severs it, or Shutdown. The deadlines
// are per frame and the front's (NewFront): the rest of a frame must
// arrive within its ReadHeaderTimeout of the first byte and the answer be
// written within its WriteTimeout, while the wait between frames is
// unbounded.
func (s *Server) handleFrames(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet || !hasToken(r.Header.Get("Connection"), "upgrade") ||
		!strings.EqualFold(r.Header.Get("Upgrade"), SubUpgradeProtocol) {
		WriteError(w, http.StatusBadRequest, "want GET with Connection: Upgrade and Upgrade: "+SubUpgradeProtocol)
		return
	}
	c, brw, err := http.NewResponseController(w).Hijack()
	if err != nil {
		WriteError(w, http.StatusInternalServerError, "cannot hold this connection: "+err.Error())
		return
	}
	hc := &heldConn{c: c, busy: true}
	if !s.hold(hc) {
		c.Close()
		return
	}
	defer s.drop(hc)
	br := brw.Reader
	if br.Buffered() == 0 {
		// Read the connection itself, not through net/http's reader.
		br = bufio.NewReader(c)
	}
	c.SetDeadline(time.Now().Add(s.hs.WriteTimeout))
	brw.WriteString("HTTP/1.1 101 Switching Protocols\r\nConnection: Upgrade\r\nUpgrade: " + SubUpgradeProtocol + "\r\n\r\n")
	if brw.Flush() != nil {
		return
	}
	for s.mark(hc, false) {
		c.SetReadDeadline(time.Time{})
		if _, err := br.Peek(1); err != nil || !s.mark(hc, true) {
			return
		}
		now := time.Now()
		c.SetReadDeadline(now.Add(s.hs.ReadHeaderTimeout))
		c.SetWriteDeadline(now.Add(s.hs.WriteTimeout))
		if !s.serveFrame(br, brw.Writer) {
			return
		}
	}
}

// serveFrame reads one request from br, runs it and writes its answer to
// bw. It reports whether the connection can carry another frame: not
// when the peer went away, the frame severed it, or the answer could not
// be written.
func (s *Server) serveFrame(br *bufio.Reader, bw *bufio.Writer) bool {
	env, err := br.Peek(subRequestEnvLen)
	if err != nil {
		return false
	}
	op, timeoutMS, length := lookupSubOp(env[0]), int(int32(le.Uint32(env[1:]))), int64(le.Uint32(env[5:]))
	br.Discard(subRequestEnvLen)
	body := &io.LimitedReader{R: br, N: length}
	out := frameOut{bw: bw}
	s.run(context.Background(), op.name, mShardSubqueries, answerTo{f: &out}, func(sn *Snapshot, gen int64) (Request, error) {
		return s.decodeSub(sn, gen, op, timeoutMS, body, length)
	})
	if out.sever {
		return false
	}
	// A frame refused before its items were read leaves them unread.
	if body.N > 0 {
		if _, err := io.Copy(io.Discard, body); err != nil {
			return false
		}
	}
	return bw.Flush() == nil
}

// frameOut writes the answers of one frame connection.
type frameOut struct {
	bw *bufio.Writer
	// sever refuses the frame by closing the connection unanswered.
	sever bool
}

// put writes the envelope of status and the Retry-After hint retryAfter
// (whole seconds, 0 for none), then body, which it frees.
func (o *frameOut) put(status, retryAfter int, body *frameBuf) {
	env := o.bw.AvailableBuffer()
	env = le.AppendUint16(env, uint16(status))
	env = le.AppendUint16(env, uint16(min(retryAfter, math.MaxUint16)))
	env = le.AppendUint32(env, uint32(len(body.b)))
	o.bw.Write(env)
	o.bw.Write(body.b)
	body.free()
}

// hold registers a frame connection; false once Shutdown has begun.
func (s *Server) hold(hc *heldConn) bool {
	s.heldMu.Lock()
	defer s.heldMu.Unlock()
	if s.closing {
		return false
	}
	s.held[hc] = struct{}{}
	mSubConns.Add(1)
	return true
}

// drop closes a frame connection and forgets it.
func (s *Server) drop(hc *heldConn) {
	hc.c.Close()
	s.heldMu.Lock()
	delete(s.held, hc)
	s.heldMu.Unlock()
	mSubConns.Add(-1)
}

// mark records whether hc is busy with a frame or waiting for the next;
// false once Shutdown has begun, which closes the connections it finds
// waiting — so a frame that begins to arrive after that is not served.
func (s *Server) mark(hc *heldConn, busy bool) bool {
	s.heldMu.Lock()
	defer s.heldMu.Unlock()
	hc.busy = busy
	return !s.closing
}

// closeHeld refuses new frame connections, closes the idle ones, and
// waits within ctx for the busy ones to answer their frame and close.
func (s *Server) closeHeld(ctx context.Context) error {
	s.heldMu.Lock()
	s.closing = true
	for hc := range s.held {
		if !hc.busy {
			hc.c.Close()
		}
	}
	s.heldMu.Unlock()
	tick := time.NewTicker(time.Millisecond)
	defer tick.Stop()
	for {
		s.heldMu.Lock()
		n := len(s.held)
		s.heldMu.Unlock()
		if n == 0 {
			return nil
		}
		select {
		case <-ctx.Done():
			return ctx.Err()
		case <-tick.C:
		}
	}
}

// hasToken reports whether the comma-separated header value v lists
// token, in any case.
func hasToken(v, token string) bool {
	for _, t := range strings.Split(v, ",") {
		if strings.EqualFold(strings.TrimSpace(t), token) {
			return true
		}
	}
	return false
}
