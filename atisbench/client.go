package main

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"net/http"
	"strconv"
	"time"
)

// conn is one keep-alive HTTP/1.1 connection to the server under test,
// written by hand so the client side of every request is one write and
// one read on the caller's goroutine — no transport goroutines queueing
// for the two cores the server also needs.
type conn struct {
	addr string
	c    net.Conn
	br   *bufio.Reader
	buf  []byte
}

func dial(addr string) (*conn, error) {
	c := &conn{addr: addr}
	return c, c.redial()
}

func (c *conn) redial() error {
	if c.c != nil {
		c.c.Close()
	}
	nc, err := net.Dial("tcp", c.addr)
	if err != nil {
		return err
	}
	c.c = nc
	c.br = bufio.NewReaderSize(nc, 16<<10)
	return nil
}

func (c *conn) close() {
	if c.c != nil {
		c.c.Close()
	}
}

// reply is what the benchmark keeps of one response.
type reply struct {
	status int
	// snapshot is the X-ATIS-Snapshot header: the generation the server
	// held as the request began.
	snapshot uint64
	body     []byte
}

// do sends one request and reads the whole response. reqID is sent as
// X-Request-ID, which the server honours; the traced pass uses it to join
// its handler spans to client-side timings.
func (c *conn) do(method, target, reqID string, body []byte) (reply, error) {
	b := c.buf[:0]
	b = append(b, method...)
	b = append(b, ' ')
	b = append(b, target...)
	b = append(b, " HTTP/1.1\r\nHost: atisbench\r\nX-Request-ID: "...)
	b = append(b, reqID...)
	if body != nil {
		b = append(b, "\r\nContent-Type: application/json\r\nContent-Length: "...)
		b = strconv.AppendInt(b, int64(len(body)), 10)
	}
	b = append(b, "\r\n\r\n"...)
	b = append(b, body...)
	c.buf = b
	if _, err := c.c.Write(b); err != nil {
		return reply{}, c.fail(err)
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return reply{}, c.fail(err)
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return reply{}, c.fail(err)
	}
	r := reply{status: resp.StatusCode, body: data}
	if v := resp.Header.Get("X-ATIS-Snapshot"); v != "" {
		r.snapshot, _ = strconv.ParseUint(v, 10, 64)
	}
	if resp.Close {
		if err := c.redial(); err != nil {
			return r, err
		}
	}
	return r, nil
}

// fail reconnects after a transport error so the connection is usable for
// the next request, and returns the original error.
func (c *conn) fail(err error) error {
	if rerr := c.redial(); rerr != nil {
		return fmt.Errorf("%w (reconnect: %v)", err, rerr)
	}
	return err
}

// getUntilOK polls target on a fresh connection until it answers 200, the
// end of set-up.
func getUntilOK(addr, target string, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := dial(addr)
		if err == nil {
			r, err2 := c.do("GET", target, "setup", nil)
			c.close()
			if err2 == nil && r.status == http.StatusOK {
				return nil
			}
			err = err2
			if err == nil {
				err = fmt.Errorf("status %d", r.status)
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not ready after %v: %v", timeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}
