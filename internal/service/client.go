package service

import (
	"bytes"
	"crypto/sha256"
	"encoding/base64"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strings"
	"time"

	"repro/internal/buildcache"
	"repro/internal/spec"
	"repro/internal/syntax"
)

// cachePrefix namespaces buildcache archives among the daemon's blobs,
// matching buildcache.MirrorBackend's build_cache/ layout so one mirror
// serves local and remote pullers the same bytes.
const cachePrefix = "build_cache/"

// HTTPBackend implements buildcache.Backend over a daemon's blob API,
// so `buildcache push|pull` and the cache-first builder work against a
// remote service unchanged. Gets validate the payload against the
// server's SHA-256 ETag (one immediate re-fetch on mismatch), existence
// checks are HEADs, and transient failures (network errors, 5xx,
// truncated bodies) retry with bounded exponential backoff.
type HTTPBackend struct {
	// BaseURL is the daemon root, e.g. "http://cache.example.com:8587".
	BaseURL string
	// HTTP is the client used for every request; nil means
	// http.DefaultClient.
	HTTP *http.Client
	// Retries bounds how many times a transient failure is retried
	// beyond the first attempt (default 3; negative disables retry).
	Retries int
	// Backoff is the delay before the first retry, doubling per
	// attempt (default 10ms).
	Backoff time.Duration
	// Signer, when set, attaches a detached signature over each uploaded
	// archive's SHA-256 as an X-Spack-Signature header, so a daemon
	// enforcing a trust policy accepts the push. Only archive payloads
	// (*.spack.json) are signed — sidecars ride the archive's trust.
	Signer buildcache.Signer
}

// sharedTransport is the connection pool every HTTPBackend and Client
// in the process shares by default. A build farm runs many workers per
// host, each hammering the same daemon with small blob and lease
// requests; per-host keep-alive slots sized for that herd mean steady
// state reuses warm connections instead of dialing fresh ones under
// load.
var sharedTransport = &http.Transport{
	MaxIdleConns:        256,
	MaxIdleConnsPerHost: 64,
	IdleConnTimeout:     90 * time.Second,
}

// sharedHTTPClient is the default client over sharedTransport.
var sharedHTTPClient = &http.Client{Transport: sharedTransport}

// NewHTTPBackend points a backend at a daemon root URL.
func NewHTTPBackend(base string) *HTTPBackend {
	return &HTTPBackend{BaseURL: strings.TrimSuffix(base, "/")}
}

func (b *HTTPBackend) client() *http.Client {
	if b.HTTP != nil {
		return b.HTTP
	}
	return sharedHTTPClient
}

func (b *HTTPBackend) retries() int {
	if b.Retries != 0 {
		return max(b.Retries, 0)
	}
	return 3
}

// backoff is the delay before retry #attempt: exponential with up to
// +50% random jitter, so a herd of workers tripping over the same
// transient failure does not retry in lockstep.
func (b *HTTPBackend) backoff(attempt int) time.Duration {
	base := b.Backoff
	if base <= 0 {
		base = 10 * time.Millisecond
	}
	d := base << (attempt - 1)
	return d + rand.N(d/2+1)
}

func (b *HTTPBackend) blobURL(name string) string {
	return b.BaseURL + "/v1/blobs/" + escapePath(cachePrefix+name)
}

// transientError marks a failure worth retrying: the request may
// succeed on a healthy attempt (network blip, 5xx, torn payload).
type transientError struct{ err error }

func (e *transientError) Error() string { return e.err.Error() }
func (e *transientError) Unwrap() error { return e.err }

func transient(format string, args ...any) error {
	return &transientError{err: fmt.Errorf(format, args...)}
}

// retry runs fn until it succeeds, fails permanently, or the attempt
// budget is spent; only transientErrors re-run.
func (b *HTTPBackend) retry(fn func() error) error {
	var err error
	for attempt := 0; ; attempt++ {
		if attempt > 0 {
			time.Sleep(b.backoff(attempt))
		}
		err = fn()
		var te *transientError
		if err == nil || !errors.As(err, &te) || attempt >= b.retries() {
			return err
		}
	}
}

// Put uploads a payload with its SHA-256 declared, so the server
// rejects (rather than stores) bytes torn in transit. Archive payloads
// are additionally signed when a Signer is wired.
func (b *HTTPBackend) Put(name string, data []byte) error {
	sum := sha256.Sum256(data)
	sumHex := hex.EncodeToString(sum[:])
	var sigHeader string
	if b.Signer != nil && strings.HasSuffix(name, ".spack.json") {
		sig, err := b.Signer.Sign(sumHex)
		if err != nil {
			return fmt.Errorf("service: sign %s: %w", name, err)
		}
		if sig != nil {
			sigHeader = base64.StdEncoding.EncodeToString(sig)
		}
	}
	return b.retry(func() error {
		req, err := http.NewRequest(http.MethodPut, b.blobURL(name), bytes.NewReader(data))
		if err != nil {
			return err
		}
		req.Header.Set("Content-Type", "application/octet-stream")
		req.Header.Set("X-Content-Sha256", sumHex)
		if sigHeader != "" {
			req.Header.Set("X-Spack-Signature", sigHeader)
		}
		resp, err := b.client().Do(req)
		if err != nil {
			return transient("put %s: %w", name, err)
		}
		defer drain(resp)
		switch {
		case resp.StatusCode == http.StatusOK,
			resp.StatusCode == http.StatusCreated,
			resp.StatusCode == http.StatusNoContent:
			return nil
		case resp.StatusCode >= 500:
			return transient("put %s: server said %s", name, resp.Status)
		default:
			return fmt.Errorf("service: put %s: server said %s", name, resp.Status)
		}
	})
}

// Get downloads a payload and verifies it against the server's ETag; a
// mismatch (or a truncated body) is treated as transient and re-fetched
// within the retry budget.
func (b *HTTPBackend) Get(name string) ([]byte, bool, error) {
	var data []byte
	found := false
	err := b.retry(func() error {
		data, found = nil, false
		resp, err := b.client().Get(b.blobURL(name))
		if err != nil {
			return transient("get %s: %w", name, err)
		}
		defer drain(resp)
		switch {
		case resp.StatusCode == http.StatusNotFound:
			return nil
		case resp.StatusCode >= 500:
			return transient("get %s: server said %s", name, resp.Status)
		case resp.StatusCode != http.StatusOK:
			return fmt.Errorf("service: get %s: server said %s", name, resp.Status)
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			// A body cut short (connection dropped, Content-Length
			// unmet) surfaces here; the payload cannot be trusted.
			return transient("get %s: truncated body: %w", name, err)
		}
		if etag := strings.Trim(resp.Header.Get("ETag"), `"`); etag != "" {
			sum := sha256.Sum256(body)
			if got := hex.EncodeToString(sum[:]); got != etag {
				return transient("get %s: payload sha256 %s does not match ETag %s", name, got, etag)
			}
		}
		data, found = body, true
		return nil
	})
	if err != nil {
		return nil, false, fmt.Errorf("service: %w", err)
	}
	return data, found, nil
}

// Stat asks for existence with a HEAD — no payload moves.
func (b *HTTPBackend) Stat(name string) (bool, error) {
	ok := false
	err := b.retry(func() error {
		ok = false
		resp, err := b.client().Head(b.blobURL(name))
		if err != nil {
			return transient("head %s: %w", name, err)
		}
		defer drain(resp)
		switch {
		case resp.StatusCode == http.StatusOK:
			ok = true
			return nil
		case resp.StatusCode == http.StatusNotFound:
			return nil
		case resp.StatusCode >= 500:
			return transient("head %s: server said %s", name, resp.Status)
		default:
			return fmt.Errorf("service: head %s: server said %s", name, resp.Status)
		}
	})
	if err != nil {
		return false, fmt.Errorf("service: %w", err)
	}
	return ok, nil
}

// Sum answers a checksum query from the server's SHA-256 ETag via a
// HEAD — no payload moves and no re-hash (buildcache.Summer).
func (b *HTTPBackend) Sum(name string) (string, bool, error) {
	sum, ok := "", false
	err := b.retry(func() error {
		sum, ok = "", false
		resp, err := b.client().Head(b.blobURL(name))
		if err != nil {
			return transient("head %s: %w", name, err)
		}
		defer drain(resp)
		switch {
		case resp.StatusCode == http.StatusOK:
			sum = strings.Trim(resp.Header.Get("ETag"), `"`)
			ok = sum != ""
			return nil
		case resp.StatusCode == http.StatusNotFound:
			return nil
		case resp.StatusCode >= 500:
			return transient("head %s: server said %s", name, resp.Status)
		default:
			return fmt.Errorf("service: head %s: server said %s", name, resp.Status)
		}
	})
	if err != nil {
		return "", false, fmt.Errorf("service: %w", err)
	}
	return sum, ok, nil
}

// List returns the archive names under the daemon's build_cache/
// namespace, sorted (the server lists blobs sorted).
func (b *HTTPBackend) List() ([]string, error) {
	var names []string
	err := b.retry(func() error {
		names = nil
		resp, err := b.client().Get(b.BaseURL + "/v1/blobs")
		if err != nil {
			return transient("list: %w", err)
		}
		defer drain(resp)
		if resp.StatusCode >= 500 {
			return transient("list: server said %s", resp.Status)
		}
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("service: list: server said %s", resp.Status)
		}
		var infos []BlobInfo
		if err := json.NewDecoder(resp.Body).Decode(&infos); err != nil {
			return transient("list: decode: %w", err)
		}
		for _, info := range infos {
			if rest, ok := strings.CutPrefix(info.Name, cachePrefix); ok {
				names = append(names, rest)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("service: %w", err)
	}
	return names, nil
}

// Delete removes a blob; a missing name is a no-op, matching the local
// backends.
func (b *HTTPBackend) Delete(name string) error {
	return b.retry(func() error {
		req, err := http.NewRequest(http.MethodDelete, b.blobURL(name), nil)
		if err != nil {
			return err
		}
		resp, err := b.client().Do(req)
		if err != nil {
			return transient("delete %s: %w", name, err)
		}
		defer drain(resp)
		switch {
		case resp.StatusCode == http.StatusOK,
			resp.StatusCode == http.StatusNoContent,
			resp.StatusCode == http.StatusNotFound:
			return nil
		case resp.StatusCode >= 500:
			return transient("delete %s: server said %s", name, resp.Status)
		default:
			return fmt.Errorf("service: delete %s: server said %s", name, resp.Status)
		}
	})
}

// drain discards and closes a response body so the connection is
// reusable.
func drain(resp *http.Response) {
	_, _ = io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
}

// escapePath escapes a blob name for a URL path segment by segment, so
// names namespaced with "/" (build_cache/…) keep their structure.
func escapePath(name string) string {
	segs := strings.Split(name, "/")
	for i, s := range segs {
		segs[i] = url.PathEscape(s)
	}
	return strings.Join(segs, "/")
}

// Client drives the daemon's spec endpoints — what a remote spack-go
// or a build-farm worker uses to concretize and install through the
// service.
type Client struct {
	// BaseURL is the daemon root.
	BaseURL string
	// HTTP is the client used for every request; nil means
	// http.DefaultClient.
	HTTP *http.Client
}

// NewClient points a client at a daemon root URL.
func NewClient(base string) *Client {
	return &Client{BaseURL: strings.TrimSuffix(base, "/")}
}

func (c *Client) client() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return sharedHTTPClient
}

// post sends a JSON body and decodes a JSON response, surfacing the
// server's error text on non-2xx statuses.
func (c *Client) post(path string, req, resp any) error {
	body, err := json.Marshal(req)
	if err != nil {
		return err
	}
	r, err := c.client().Post(c.BaseURL+path, "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("service: post %s: %w", path, err)
	}
	defer drain(r)
	if r.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(r.Body, 4096))
		return fmt.Errorf("service: post %s: %s: %s", path, r.Status, strings.TrimSpace(string(msg)))
	}
	return json.NewDecoder(r.Body).Decode(resp)
}

// Concretize resolves an abstract spec expression on the server.
func (c *Client) Concretize(expr string) (*ConcretizeResponse, error) {
	return c.ConcretizeWith(ConcretizeRequest{Spec: expr})
}

// ConcretizeWith resolves a fully specified concretize request.
func (c *Client) ConcretizeWith(req ConcretizeRequest) (*ConcretizeResponse, error) {
	var out ConcretizeResponse
	if err := c.post("/v1/concretize", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// ConcretizeSpec resolves an expression and decodes the returned DAG
// into a full spec (edges and hashes intact).
func (c *Client) ConcretizeSpec(expr string) (*spec.Spec, error) {
	resp, err := c.Concretize(expr)
	if err != nil {
		return nil, err
	}
	return syntax.DecodeJSON(resp.DAG)
}

// Install asks the server to install a spec expression; concurrent
// requests for the same configuration coalesce server-side onto one
// build.
func (c *Client) Install(expr string) (*InstallResponse, error) {
	var out InstallResponse
	if err := c.post("/v1/install", ConcretizeRequest{Spec: expr}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Splice asks the daemon to rewire an installed configuration onto an
// already-installed replacement dependency without rebuilding;
// concurrent requests for the same rewiring coalesce server-side onto
// one transaction.
func (c *Client) Splice(req SpliceRequest) (*SpliceResponse, error) {
	var out SpliceResponse
	if err := c.post("/v1/splice", req, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Keys fetches the daemon's public signing keys (`buildcache keys
// fetch`).
func (c *Client) Keys() ([]KeyInfo, error) {
	resp, err := c.client().Get(c.BaseURL + "/v1/keys")
	if err != nil {
		return nil, fmt.Errorf("service: keys: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: keys: server said %s", resp.Status)
	}
	var out []KeyInfo
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return out, nil
}

// GC asks the daemon to run a garbage-collection sweep over its store
// and mirror cache.
func (c *Client) GC(dryRun bool) (*GCResponse, error) {
	var out GCResponse
	if err := c.post("/v1/gc", GCRequest{DryRun: dryRun}, &out); err != nil {
		return nil, err
	}
	return &out, nil
}

// Stats fetches the daemon's counter snapshot.
func (c *Client) Stats() (*Stats, error) {
	resp, err := c.client().Get(c.BaseURL + "/v1/stats")
	if err != nil {
		return nil, fmt.Errorf("service: stats: %w", err)
	}
	defer drain(resp)
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("service: stats: server said %s", resp.Status)
	}
	var out Stats
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		return nil, err
	}
	return &out, nil
}
