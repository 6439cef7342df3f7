package transport

import (
	"fmt"
	"sync"
	"time"

	"smarteryou/internal/features"
)

// Session is one pinned connection for authentication: single and
// batched authenticates, and streams (StartStream), run on it without a
// dial or a handshake each. Safe for concurrent use; requests are
// serialized on the single connection. Writes, training and the other
// verbs go through Client, which retries busy answers and follows
// redirects.
type Session struct {
	timeout time.Duration

	mu        sync.Mutex
	conn      *wireConn
	streaming bool
}

// NewSession dials the server once through the client's dialer and returns
// a reusable session. Close it when done.
func (c *Client) NewSession() (*Session, error) {
	nc, err := c.dial("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	return &Session{timeout: c.timeout, conn: newWireConn(nc, c.key)}, nil
}

// Close releases the underlying connection.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil
	}
	err := s.conn.nc.Close()
	s.conn = nil
	return err
}

// use runs one exchange on the session connection, serialized with every
// other.
func (s *Session) use(do func(*wireConn) error) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return fmt.Errorf("transport: session is closed")
	}
	if s.streaming {
		return fmt.Errorf("transport: session has an open stream; close it first")
	}
	return do(s.conn)
}

// Authenticate asks the server to classify one feature window with the
// user's current model on the session connection.
func (s *Session) Authenticate(userID string, sample features.WindowSample) (d AuthDecision, err error) {
	err = s.use(func(c *wireConn) error {
		d, err = c.authenticate(s.timeout, userID, sample)
		return err
	})
	return d, err
}

// AuthenticateBatch classifies many windows for one user in a single
// round trip on the session connection; see Client.AuthenticateBatch.
func (s *Session) AuthenticateBatch(userID string, samples []features.WindowSample) (ds []AuthDecision, err error) {
	err = s.use(func(c *wireConn) error {
		ds, err = c.authenticateBatch(s.timeout, userID, samples)
		return err
	})
	return ds, err
}
