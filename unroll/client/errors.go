package client

import (
	"errors"
	"fmt"
	"net/http"
	"time"
)

// Stable machine-readable error codes carried by APIError.Code. They name
// the failure class independently of HTTP status numerology, so callers
// switch on a code instead of memorizing which statuses the service emits.
const (
	CodeBadRequest    = "bad_request"   // 400: malformed or invalid request
	CodeNotFound      = "not_found"     // 404: unknown route or model version
	CodeConflict      = "conflict"      // 409: operation refused in the current state
	CodeUnprocessable = "unprocessable" // 422: request parsed but prediction failed
	CodeOverCapacity  = "over_capacity" // 429: rate or quota exceeded
	CodeInternal      = "internal"      // 500: server-side failure (contained panic)
	CodeBadGateway    = "bad_gateway"   // 502: intermediary failure
	CodeUnavailable   = "unavailable"   // 503: load shed, drain, or breaker
	CodeTimeout       = "timeout"       // 504: deadline exceeded server-side
)

// codeForStatus maps an HTTP status to its stable code. Unlisted statuses
// get a synthetic "http_<n>" code rather than losing information.
func codeForStatus(status int) string {
	switch status {
	case http.StatusBadRequest:
		return CodeBadRequest
	case http.StatusNotFound:
		return CodeNotFound
	case http.StatusConflict:
		return CodeConflict
	case http.StatusUnprocessableEntity:
		return CodeUnprocessable
	case http.StatusTooManyRequests:
		return CodeOverCapacity
	case http.StatusInternalServerError:
		return CodeInternal
	case http.StatusBadGateway:
		return CodeBadGateway
	case http.StatusServiceUnavailable:
		return CodeUnavailable
	case http.StatusGatewayTimeout:
		return CodeTimeout
	}
	return fmt.Sprintf("http_%d", status)
}

// APIError is a non-2xx answer from the service — the single error type
// every Client method returns for protocol-level failures. Status and Code
// classify the failure, RequestID ties it to the server's logs and trace
// ring, Endpoint names the replica that answered, and for 503/429 answers
// RetryAfter carries the server's backoff hint clamped to MaxRetryAfter.
//
// APIError supports errors.As, and errors.Is against a template: a target
// *APIError matches when every one of its non-zero fields (Status, Code,
// Endpoint) equals the error's.
type APIError struct {
	Status     int
	Code       string
	Message    string
	RequestID  string
	Endpoint   string
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	s := fmt.Sprintf("unrolld: %s (HTTP %d %s", e.Message, e.Status, e.Code)
	if e.Endpoint != "" {
		s += " from " + e.Endpoint
	}
	return s + ")"
}

// Is implements template matching for errors.Is: every non-zero field of
// the target must match. An all-zero target matches any APIError.
func (e *APIError) Is(target error) bool {
	t, ok := target.(*APIError)
	if !ok {
		return false
	}
	if t.Status != 0 && t.Status != e.Status {
		return false
	}
	if t.Code != "" && t.Code != e.Code {
		return false
	}
	if t.Endpoint != "" && t.Endpoint != e.Endpoint {
		return false
	}
	return true
}

// IsOverloaded reports whether an error is the service shedding load
// (backpressure, drain, or rate limiting); callers should back off and
// retry. It sees through retry-loop wrapping.
func IsOverloaded(err error) bool {
	var ae *APIError
	if !errors.As(err, &ae) {
		return false
	}
	return ae.Status == http.StatusServiceUnavailable || ae.Status == http.StatusTooManyRequests
}
