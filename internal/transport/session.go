package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"smarteryou/internal/core"
	"smarteryou/internal/ctxdetect"
	"smarteryou/internal/features"
)

// doRequest performs one request/response exchange on an established
// connection.
func doRequest(conn net.Conn, key []byte, timeout time.Duration, reqType string, payload, out any) error {
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return fmt.Errorf("transport: set deadline: %w", err)
	}
	env, err := Seal(key, reqType, payload)
	if err != nil {
		return err
	}
	if err := WriteFrame(conn, env); err != nil {
		return err
	}
	resp, err := ReadFrame(conn)
	if err != nil {
		return fmt.Errorf("transport: read response: %w", err)
	}
	return decodeResponse(resp, key, out)
}

// decodeResponse verifies a response envelope and either decodes its
// payload into out or maps the protocol-level error types onto Go errors.
func decodeResponse(resp Envelope, key []byte, out any) error {
	if resp.Type == TypeError {
		var ep errorPayload
		if err := resp.Open(key, &ep); err != nil {
			return err
		}
		return &RemoteError{Message: ep.Message}
	}
	if resp.Type == TypeBusy {
		var bp busyPayload
		if err := resp.Open(key, &bp); err != nil {
			return err
		}
		return &BusyError{
			Message:    bp.Message,
			RetryAfter: time.Duration(bp.RetryAfterSeconds * float64(time.Second)),
		}
	}
	if resp.Type == TypeRedirect {
		var rp redirectPayload
		if err := resp.Open(key, &rp); err != nil {
			return err
		}
		return &RedirectError{Message: rp.Message, Leader: rp.Leader}
	}
	if resp.Type != TypeOK {
		return fmt.Errorf("transport: unexpected response type %q", resp.Type)
	}
	return resp.Open(key, out)
}

// Session is a connection-reusing view of the Authentication Server: the
// retraining flow (upload then train then download) runs several round
// trips back to back, and reusing one TCP connection avoids repeated
// handshakes on the metered mobile link. Safe for concurrent use; requests
// are serialized on the single connection.
type Session struct {
	key     []byte
	timeout time.Duration
	retry   busyPolicy

	mu        sync.Mutex
	conn      net.Conn
	streaming bool
}

// NewSession dials the server once (through the client's dialer, so link
// conditioning applies to the whole session flow) and returns a reusable
// session. Close it when done.
func (c *Client) NewSession() (*Session, error) {
	conn, err := c.dial("tcp", c.addr, c.timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", c.addr, err)
	}
	return &Session{key: c.key, timeout: c.timeout, retry: c.retry, conn: conn}, nil
}

// Close releases the underlying connection.
func (s *Session) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return nil
	}
	err := s.conn.Close()
	s.conn = nil
	return err
}

func (s *Session) roundTrip(reqType string, payload, out any) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.conn == nil {
		return fmt.Errorf("transport: session is closed")
	}
	if s.streaming {
		return fmt.Errorf("transport: session has an open stream; close it first")
	}
	return doRequest(s.conn, s.key, s.timeout, reqType, payload, out)
}

// Enroll uploads feature windows on the session connection.
func (s *Session) Enroll(userID string, samples []features.WindowSample) (stored int, err error) {
	var resp enrollResponse
	err = s.roundTrip(TypeEnroll, enrollRequest{UserID: userID, Samples: samples}, &resp)
	return resp.Stored, err
}

// ReplaceEnrollment uploads the user's latest behaviour, discarding stale
// windows.
func (s *Session) ReplaceEnrollment(userID string, samples []features.WindowSample) (stored int, err error) {
	var resp enrollResponse
	err = s.roundTrip(TypeEnroll, enrollRequest{UserID: userID, Replace: true, Samples: samples}, &resp)
	return resp.Stored, err
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
func (s *Session) Authenticate(userID string, sample features.WindowSample) (AuthDecision, error) {
	var resp authResponse
	err := s.roundTrip(TypeAuthenticate, authRequest{UserID: userID, Sample: sample}, &resp)
	if err != nil {
		return AuthDecision{}, err
	}
	return AuthDecision(resp), nil
}

// AuthenticateBatch classifies many windows for one user in a single
// round trip on the session connection; see Client.AuthenticateBatch.
func (s *Session) AuthenticateBatch(userID string, samples []features.WindowSample) ([]AuthDecision, error) {
	var resp batchAuthResponse
	err := s.roundTrip(TypeAuthBatch, batchAuthRequest{UserID: userID, Samples: samples}, &resp)
	if err != nil {
		return nil, err
	}
	return decisionsFromResponses(resp.Decisions), nil
}

// Stats fetches the server's population summary.
func (s *Session) Stats() (users, windows int, err error) {
	var resp statsResponse
	err = s.roundTrip(TypeStats, nil, &resp)
	return resp.Users, resp.Windows, err
}
