package cluster

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"crowdsense/internal/obs/span"
	"crowdsense/internal/wire"
)

// RouterConfig parameterizes a shard router.
type RouterConfig struct {
	// Ring decides campaign → shard placement; it must match the ring the
	// nodes were deployed with.
	Ring *Ring
	// Members lists each shard's candidate agent addresses in preference
	// order — the leader's address first, then standby addresses that only
	// answer after a promotion.
	Members map[string][]string
	// DialTimeout bounds one backend dial and its first reply. Zero means
	// 2 s.
	DialTimeout time.Duration
	// SpanSinks, when non-empty, receive one router.hop span per routed
	// session (codec, shard, backend member). Each hop adopts the round's
	// trace context from the backend's first reply, so the router lane
	// parents under the engine's round span in a stitched timeline.
	SpanSinks []span.Sink
	// Node names this router in spans; defaults to "router".
	Node string
	// Logf, if set, receives one-line routing logs.
	Logf func(format string, args ...any)
}

func (c RouterConfig) dialTimeout() time.Duration {
	if c.DialTimeout <= 0 {
		return dialTimeout
	}
	return c.DialTimeout
}

// Router fronts a sharded cluster behind one dial address. Each agent
// session's first envelope names (or omits) its campaign; the router
// consistent-hashes that onto a shard, finds the shard's live member, and
// splices the connection through. Agents never learn the topology — legacy
// agents with no campaign field land on the default shard untouched.
//
// When a shard has no live member (the failover window), the session is
// rejected with a wire.ShardMovedMessage error, which agents running under
// RunWithBackoff treat as retryable.
type Router struct {
	cfg   RouterConfig
	spans *span.Tracer
	ln    net.Listener
	wg    sync.WaitGroup

	mu       sync.Mutex
	lastGood map[string]int // shard → member index that answered last

	sessions sync.WaitGroup
	conns    map[net.Conn]struct{}
	connsMu  sync.Mutex
	routed   map[string]int64 // shard → sessions spliced (metrics)
	routedMu sync.Mutex
	rejected int64
	rerouted int64 // sessions that succeeded on a non-first member
}

// StartRouter binds addr and serves until Close.
func StartRouter(addr string, cfg RouterConfig) (*Router, error) {
	if cfg.Ring == nil {
		return nil, fmt.Errorf("cluster: router needs a ring")
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("cluster: router listen %s: %w", addr, err)
	}
	node := cfg.Node
	if node == "" {
		node = "router"
	}
	r := &Router{
		cfg:      cfg,
		spans:    span.New(cfg.SpanSinks...).SetNode(node),
		ln:       ln,
		lastGood: make(map[string]int),
		conns:    make(map[net.Conn]struct{}),
		routed:   make(map[string]int64),
	}
	r.wg.Add(1)
	go func() {
		defer r.wg.Done()
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			r.track(conn, true)
			r.sessions.Add(1)
			go func() {
				defer r.sessions.Done()
				defer r.track(conn, false)
				defer conn.Close()
				r.serve(conn)
			}()
		}
	}()
	return r, nil
}

func (r *Router) track(c net.Conn, add bool) {
	r.connsMu.Lock()
	if add {
		r.conns[c] = struct{}{}
	} else {
		delete(r.conns, c)
	}
	r.connsMu.Unlock()
}

// Addr returns the router's bound address — the cluster's one dial address.
func (r *Router) Addr() string { return r.ln.Addr().String() }

// Close stops accepting, severs live sessions, and waits for them to end.
func (r *Router) Close() {
	r.ln.Close()
	r.connsMu.Lock()
	for c := range r.conns {
		c.Close()
	}
	r.connsMu.Unlock()
	r.wg.Wait()
	r.sessions.Wait()
}

// routedSession is the negotiated first exchange of one client session: the
// campaign it targets and the exact bytes to replay to the chosen backend.
// For a binary session, forward carries the version byte plus the raw first
// frame, so the backend negotiates the same codec the client did.
type routedSession struct {
	campaign string
	forward  []byte
	binary   bool
}

var errMalformed = fmt.Errorf("router: malformed first envelope")

// readFirst negotiates the session codec from the client's first byte the
// same way the engine does — wire.BinaryVersion selects the length-prefixed
// binary framing, anything else is a legacy JSON line — and reads the first
// envelope without re-encoding it. Parse-level failures wrap errMalformed;
// everything else is a connection-level error the caller drops silently.
func (r *Router) readFirst(cr *bufio.Reader) (*routedSession, error) {
	peek, err := cr.Peek(1)
	if err != nil {
		return nil, err
	}
	if peek[0] == wire.BinaryVersion {
		_, _ = cr.ReadByte()
		frame, err := wire.ReadRawBinaryFrame(cr)
		if err != nil {
			return nil, err
		}
		env, err := wire.DecodeBinaryFrame(frame)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", errMalformed, err)
		}
		return &routedSession{campaign: env.Campaign,
			forward: append([]byte{wire.BinaryVersion}, frame...), binary: true}, nil
	}
	first, err := readEnvelopeLine(cr)
	if err != nil {
		return nil, err
	}
	var env wire.Envelope
	if err := json.Unmarshal(first, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", errMalformed, err)
	}
	if err := env.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", errMalformed, err)
	}
	return &routedSession{campaign: env.Campaign, forward: append(first, '\n')}, nil
}

// readReplyFrame reads the backend's first reply in relay-ready form: a raw
// binary frame for binary sessions, a newline-terminated JSON line otherwise.
// A JSON-only backend answering a binary session with an error line is
// relayed as-is — the binary client codec falls back to JSON on '{'.
func readReplyFrame(br *bufio.Reader, binarySession bool) ([]byte, error) {
	if binarySession {
		peek, err := br.Peek(1)
		if err != nil {
			return nil, err
		}
		if !wire.IsJSONLine(peek[0]) {
			return wire.ReadRawBinaryFrame(br)
		}
	}
	line, err := readEnvelopeLine(br)
	if err != nil {
		return nil, err
	}
	return append(line, '\n'), nil
}

// isErrorReply reports whether a relay-ready reply is a type:"error"
// envelope, in either framing.
func isErrorReply(reply []byte, binarySession bool) bool {
	if binarySession && len(reply) > 0 && !wire.IsJSONLine(reply[0]) {
		env, err := wire.DecodeBinaryFrame(reply)
		return err == nil && env.Type == wire.TypeError
	}
	return isErrorEnvelope(reply)
}

// replyTrace extracts the trace context a relay-ready backend reply carries,
// nil for legacy backends (or undecodable replies — the relay itself does not
// care what the bytes say).
func replyTrace(reply []byte, binarySession bool) *wire.TraceContext {
	if binarySession && len(reply) > 0 && !wire.IsJSONLine(reply[0]) {
		env, err := wire.DecodeBinaryFrame(reply)
		if err != nil {
			return nil
		}
		return env.Trace
	}
	var env wire.Envelope
	if err := json.Unmarshal(reply, &env); err != nil {
		return nil
	}
	return env.Trace
}

// serve routes one agent session: negotiate the codec, read the first
// envelope, resolve its shard, find a live member, splice. Error envelopes
// the router originates are always JSON lines — both codecs surface those.
func (r *Router) serve(client net.Conn) {
	cr := bufio.NewReaderSize(client, 64<<10)
	sess, err := r.readFirst(cr)
	if err != nil {
		if errors.Is(err, errMalformed) {
			wire.NewCodec(client).WriteError("router: malformed first envelope")
		}
		return
	}

	shard, ok := r.resolveShard(sess.campaign)
	if !ok {
		wire.NewCodec(client).WriteError("router: empty cluster")
		return
	}
	codecName := "json"
	if sess.binary {
		codecName = "binary"
	}
	// The hop span covers the session's whole residence at the router,
	// member search through splice end. It adopts the round's trace context
	// from the backend's first reply, the frame the router already parses.
	hop := r.spans.Start(span.NameRouterHop,
		span.Str("codec", codecName), span.Str("shard", shard))
	hop.Tag(sess.campaign, 0)
	members := r.cfg.Members[shard]
	if len(members) == 0 {
		hop.EndWith(span.Str("error", "no_members"))
		wire.NewCodec(client).WriteError(fmt.Sprintf("%s: shard %s has no members", wire.ShardMovedMessage, shard))
		return
	}

	start := r.sticky(shard)
	var lastErrReply []byte
	for i := range members {
		idx := (start + i) % len(members)
		addr := members[idx]
		backend, err := net.DialTimeout("tcp", addr, r.cfg.dialTimeout())
		if err != nil {
			continue // dead or not-yet-promoted member
		}
		if _, err := backend.Write(sess.forward); err != nil {
			backend.Close()
			continue
		}
		// A member that accepts but never answers must not pin the session:
		// the engine answers register with tasks at once, so the first reply
		// shares the dial's bound, and a silent member is skipped.
		_ = backend.SetReadDeadline(time.Now().Add(r.cfg.dialTimeout()))
		br := bufio.NewReaderSize(backend, 64<<10)
		reply, err := readReplyFrame(br, sess.binary)
		if err != nil {
			backend.Close()
			continue
		}
		_ = backend.SetReadDeadline(time.Time{}) // the spliced session keeps its own pace
		if isErrorReply(reply, sess.binary) {
			// The member answered but rejected — e.g. a stale member that no
			// longer owns the campaign. Remember the rejection and try the
			// next member; if every member rejects, the last rejection is
			// the truthful answer (e.g. a genuinely unknown campaign).
			lastErrReply = reply
			backend.Close()
			continue
		}
		if tc := replyTrace(reply, sess.binary); tc != nil {
			hop.Adopt(span.TraceContext{TraceID: tc.TraceID, SpanID: tc.SpanID, Node: tc.Node})
			if tc.SentUnixNanos != 0 {
				hop.Set(span.Int("peer_send_unix_ns", tc.SentUnixNanos),
					span.Int("recv_unix_ns", time.Now().UnixNano()))
			}
		}
		r.setSticky(shard, idx)
		r.countRouted(shard, i > 0)
		if _, err := client.Write(reply); err != nil {
			backend.Close()
			hop.EndWith(span.Str("member", addr), span.Str("error", "client_write"))
			return
		}
		r.splice(client, cr, backend, br)
		hop.EndWith(span.Str("member", addr))
		return
	}
	r.routedMu.Lock()
	r.rejected++
	r.routedMu.Unlock()
	hop.EndWith(span.Str("error", "no_live_member"))
	if lastErrReply != nil {
		client.Write(lastErrReply)
		return
	}
	wire.NewCodec(client).WriteError(fmt.Sprintf("%s: no live member for shard %s", wire.ShardMovedMessage, shard))
	r.logf("router: shard %s: no live member among %v", shard, members)
}

// splice pumps bytes both ways until either side closes. The bufio readers
// may hold bytes beyond the first envelope; copying from them first drains
// that buffer.
func (r *Router) splice(client net.Conn, cr *bufio.Reader, backend net.Conn, br *bufio.Reader) {
	defer backend.Close()
	done := make(chan struct{}, 2)
	go func() {
		io.Copy(backend, cr)
		backend.Close() // client went away: unblock the backend read
		done <- struct{}{}
	}()
	go func() {
		io.Copy(client, br)
		client.Close() // backend went away: unblock the client read
		done <- struct{}{}
	}()
	<-done
	<-done
}

func (r *Router) resolveShard(campaign string) (string, bool) {
	if campaign == "" {
		return r.cfg.Ring.Default()
	}
	return r.cfg.Ring.Owner(campaign)
}

func (r *Router) sticky(shard string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastGood[shard]
}

func (r *Router) setSticky(shard string, idx int) {
	r.mu.Lock()
	r.lastGood[shard] = idx
	r.mu.Unlock()
}

func (r *Router) countRouted(shard string, moved bool) {
	r.routedMu.Lock()
	r.routed[shard]++
	if moved {
		r.rerouted++
	}
	r.routedMu.Unlock()
}

// Stats reports per-shard routed session counts plus rejects and reroutes.
func (r *Router) Stats() (routed map[string]int64, rejected, rerouted int64) {
	r.routedMu.Lock()
	defer r.routedMu.Unlock()
	routed = make(map[string]int64, len(r.routed))
	for k, v := range r.routed {
		routed[k] = v
	}
	return routed, r.rejected, r.rerouted
}

func (r *Router) logf(format string, args ...any) {
	if r.cfg.Logf != nil {
		r.cfg.Logf(format, args...)
	}
}

// readEnvelopeLine reads one newline-terminated envelope line, bounded by
// the wire message limit.
func readEnvelopeLine(br *bufio.Reader) ([]byte, error) {
	var line []byte
	for {
		chunk, isPrefix, err := br.ReadLine()
		if err != nil {
			return nil, err
		}
		line = append(line, chunk...)
		if len(line) > wire.MaxMessageBytes {
			return nil, wire.ErrMessageTooLarge
		}
		if !isPrefix {
			return line, nil
		}
	}
}

// isErrorEnvelope reports whether the raw line is a type:"error" envelope.
func isErrorEnvelope(line []byte) bool {
	var env wire.Envelope
	if err := json.Unmarshal(line, &env); err != nil {
		return false
	}
	return env.Type == wire.TypeError
}
