package repl

import (
	"fmt"
	"io"
	"net/http"

	"prorp/internal/frame"
)

// Control-plane messages (votes, reign announces) ride JSON bodies over
// the same lossy transport as the replication stream. The stream protects
// itself with per-record frame checksums; a bare JSON body has no such
// armor, and a single flipped bit can turn `"epoch":1` into `"epoch":5` —
// an authoritative-looking lie that would fence a healthy primary the
// moment it folded the number in. Control-plane bodies therefore travel
// with a CRC-32C of the exact bytes in HeaderSum, and receivers refuse to
// decode a body that does not match. Headers travel outside the damaged
// payload, like the stream's cursor and epoch headers.

// HeaderSum carries the hex-encoded CRC-32C (Castagnoli) of a
// control-plane JSON body.
const HeaderSum = "X-Repl-Sum"

// BodySum computes the HeaderSum value for a control-plane body.
func BodySum(body []byte) string {
	return fmt.Sprintf("%08x", frame.Sum(body))
}

// VerifiedBody reads a control-plane response body (up to limit bytes)
// and checks it against the sender's HeaderSum. A missing or mismatched
// sum is a transport failure: callers treat the round trip as dropped and
// retry, never acting on the bytes.
func VerifiedBody(resp *http.Response, limit int64) ([]byte, error) {
	body, err := io.ReadAll(io.LimitReader(resp.Body, limit))
	if err != nil {
		return nil, err
	}
	want := resp.Header.Get(HeaderSum)
	if want == "" {
		return nil, fmt.Errorf("control response missing %s", HeaderSum)
	}
	if got := BodySum(body); got != want {
		return nil, fmt.Errorf("control response damaged in flight: sum %s, want %s", got, want)
	}
	return body, nil
}
