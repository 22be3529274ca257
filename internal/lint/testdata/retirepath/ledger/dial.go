// Package ledger reproduces the client.Dial handshake leak (fixed in an
// earlier PR) and a dropped energy measurement, next to the accepted
// shapes, for the retirepath analyzer's golden test.
package ledger

// Conn is the dialed resource.
type Conn struct {
	open bool
}

// Close releases the connection.
func (c *Conn) Close() error {
	c.open = false
	return nil
}

// Dial opens a connection.
func Dial(addr string) (*Conn, error) {
	_ = addr
	return &Conn{open: true}, nil
}

// Client wraps an established connection.
type Client struct {
	nc *Conn
}

// Close releases the client's connection.
func (c *Client) Close() error { return c.nc.Close() }

// handshake may fail after the socket is already open.
func handshake(nc *Conn) error {
	_ = nc
	return nil
}

// DialLeaky is the historical leak: the handshake error path returns
// without closing the freshly dialed socket.
func DialLeaky(addr string) (*Client, error) {
	nc, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	if err := handshake(nc); err != nil {
		return nil, err
	}
	return &Client{nc: nc}, nil
}

// DialReusedErr leaks the same way with the acquisition's err reused for
// the handshake: the err != nil branch after the reassignment runs with the
// socket open.
func DialReusedErr(addr string) (*Client, error) {
	nc, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	err = handshake(nc)
	if err != nil {
		return nil, err
	}
	return &Client{nc: nc}, nil
}

// DialGuarded is the accepted shape: a deferred guard-flag cleanup closes
// the socket on every early return.
func DialGuarded(addr string) (*Client, error) {
	nc, err := Dial(addr)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			nc.Close()
		}
	}()
	if err := handshake(nc); err != nil {
		return nil, err
	}
	ok = true
	return &Client{nc: nc}, nil
}
