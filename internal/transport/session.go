package transport

import (
	"fmt"
	"sync"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
)

// Session is a connection-reusing view of the Authentication Server: the
// retraining flow (upload then train then download) runs several round
// trips back to back, and reusing one TCP connection avoids repeated
// handshakes on the metered mobile link. Safe for concurrent use; requests
// are serialized on the single connection.
type Session struct {
	timeout time.Duration
	retry   busyPolicy

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
	return &Session{timeout: c.timeout, retry: c.retry, conn: newWireConn(nc, c.key)}, nil
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

func (s *Session) roundTrip(reqType string, payload, out any) error {
	return s.use(func(c *wireConn) error {
		return c.request(s.timeout, reqType, payload, out)
	})
}

// Enroll uploads feature windows on the session connection.
func (s *Session) Enroll(userID string, samples []features.WindowSample) (stored int, err error) {
	return s.enroll(userID, false, samples)
}

// ReplaceEnrollment uploads the user's latest behaviour, discarding stale
// windows.
func (s *Session) ReplaceEnrollment(userID string, samples []features.WindowSample) (stored int, err error) {
	return s.enroll(userID, true, samples)
}

func (s *Session) enroll(userID string, replace bool, samples []features.WindowSample) (stored int, err error) {
	err = s.use(func(c *wireConn) error {
		stored, err = c.enroll(s.timeout, userID, replace, samples)
		return err
	})
	return stored, err
}

// FetchDetector downloads the context-detection model.
func (s *Session) FetchDetector() (*ctxdetect.Detector, error) {
	var det ctxdetect.Detector
	if err := s.roundTrip(TypeFetchDetector, nil, &det); err != nil {
		return nil, err
	}
	return &det, nil
}

// Train asks the server to train and returns the model bundle. Like
// Client.TrainVersioned, busy responses are retried with capped
// exponential backoff from the server's hint.
func (s *Session) Train(userID string, p TrainParams) (*core.ModelBundle, error) {
	req := trainRequest{UserID: userID, TrainParams: p}
	var resp trainResponse
	err := s.retry.run(func() error {
		return s.roundTrip(TypeTrain, req, &resp)
	})
	if err != nil {
		return nil, err
	}
	if resp.Bundle == nil {
		return nil, fmt.Errorf("transport: server returned no model bundle")
	}
	return resp.Bundle, nil
}

// RequestRetrain nudges the drift-retrain scheduler on the session
// connection; see Client.RequestRetrain.
func (s *Session) RequestRetrain(userID string) (queued bool, reason string, err error) {
	var resp retrainResponse
	err = s.retry.run(func() error {
		return s.roundTrip(TypeRetrain, retrainRequest{UserID: userID}, &resp)
	})
	return resp.Queued, resp.Reason, err
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

// Stats fetches the server's population summary.
func (s *Session) Stats() (users, windows int, err error) {
	var resp statsResponse
	err = s.roundTrip(TypeStats, nil, &resp)
	return resp.Users, resp.Windows, err
}
