package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"

	"rtdvs/internal/serve"
)

// Headers that carry a traced request's span to the server-side wrapper.
const (
	hdrSpan = "X-Bench-Span"
	hdrReq  = "X-Bench-Req"
)

// liveServer is a serve.Server behind a real listener on 127.0.0.1, as
// rtdvs-serve runs it.
type liveServer struct {
	srv  *serve.Server
	hs   *http.Server
	base string
	done chan error
}

// startServer builds and starts a server. With a tracer, the handler is
// wrapped so that a request carrying span headers records a
// "serve.Handler" span under the client's span.
func startServer(tr *tracer) (*liveServer, error) {
	srv := serve.New(serve.Config{})
	srv.Start()
	h := srv.Handler()
	if tr != nil {
		inner := h
		h = http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			parent, _ := strconv.Atoi(r.Header.Get(hdrSpan))
			if parent == 0 {
				inner.ServeHTTP(w, r)
				return
			}
			req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64)
			id := tr.begin("serve.Handler", parent, req)
			inner.ServeHTTP(w, r)
			tr.end(id)
		})
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = srv.Shutdown(context.Background())
		return nil, err
	}
	l := &liveServer{
		srv:  srv,
		hs:   &http.Server{Handler: h, ReadHeaderTimeout: 10 * time.Second},
		base: "http://" + ln.Addr().String(),
		done: make(chan error, 1),
	}
	go func() { l.done <- l.hs.Serve(ln) }()
	return l, nil
}

// close stops accepting connections, waits for the serving goroutine and
// drains the server.
func (l *liveServer) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := l.hs.Shutdown(ctx)
	if serr := <-l.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := l.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// liveClients is a live server with the two client connections a
// workload drives it through.
type liveClients struct {
	live    *liveServer
	clients []*http.Client
}

// start replaces any server and clients with fresh ones.
func (lc *liveClients) start(tr *tracer) error {
	if err := lc.close(); err != nil {
		return err
	}
	live, err := startServer(tr)
	if err != nil {
		return err
	}
	lc.live = live
	lc.clients = []*http.Client{newClient(), newClient()}
	return nil
}

func (lc *liveClients) close() error {
	for _, c := range lc.clients {
		c.CloseIdleConnections()
	}
	lc.clients = nil
	if lc.live == nil {
		return nil
	}
	err := lc.live.close()
	lc.live = nil
	return err
}

// newClient returns a client that keeps one connection to the server.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

// post sends body to path and reads the whole answer into buf. With a
// tracer it records a span named name around the round trip and passes
// the span to the server.
func post(ctx context.Context, c *http.Client, url string, body []byte, buf *bytes.Buffer, tr *tracer, name string, req int64) (int, error) {
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, err
	}
	hr.Header.Set("Content-Type", "application/json")
	id := tr.begin(name, 0, req)
	defer tr.end(id)
	if id != 0 {
		hr.Header.Set(hdrSpan, strconv.Itoa(id))
		hr.Header.Set(hdrReq, strconv.FormatInt(req, 10))
	}
	resp, err := c.Do(hr)
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	buf.Reset()
	if _, err := io.Copy(buf, resp.Body); err != nil {
		return resp.StatusCode, fmt.Errorf("reading response: %w", err)
	}
	return resp.StatusCode, nil
}

// checkAnswer classifies one answer against its reference body.
func checkAnswer(status int, got, want []byte) error {
	if status != http.StatusOK {
		return fmt.Errorf("HTTP %d: %.200s", status, got)
	}
	if !bytes.Equal(got, want) {
		return mismatchf("response differs from the direct run (%d bytes, want %d)", len(got), len(want))
	}
	return nil
}
