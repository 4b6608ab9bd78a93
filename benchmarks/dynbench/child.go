package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"strconv"
	"time"

	"dynbw/internal/bw"
)

// child is the parent's handle on one gateway process.
type child struct {
	cmd  *exec.Cmd
	in   io.WriteCloser
	out  *bufio.Reader
	addr string
}

// startChild re-executes this binary with -serve and waits for the
// gateway's address. The child dies with ctx, and on its own when the
// control pipe closes, so no path leaves it running.
func startChild(ctx context.Context, slots, shards int, do bw.Tick, obsMode string) (*child, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("locate own binary: %w", err)
	}
	cmd := exec.CommandContext(ctx, exe, "-serve",
		"-slots", strconv.Itoa(slots), "-shards", strconv.Itoa(shards),
		"-do", strconv.FormatInt(do, 10), "-obs", obsMode)
	cmd.Stderr = os.Stderr
	cmd.WaitDelay = 5 * time.Second
	in, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("start gateway child: %w", err)
	}
	c := &child{cmd: cmd, in: in, out: bufio.NewReader(out)}
	var hello helloReply
	if err := c.read(&hello); err != nil {
		c.stop()
		return nil, fmt.Errorf("gateway child start-up: %w", err)
	}
	c.addr = hello.Addr
	return c, nil
}

func (c *child) read(reply any) error {
	line, err := c.out.ReadBytes('\n')
	if err != nil {
		return fmt.Errorf("read reply: %w", err)
	}
	if err := json.Unmarshal(line, reply); err != nil {
		return fmt.Errorf("decode reply %q: %w", line, err)
	}
	return nil
}

// call sends one command line and decodes the one-line reply.
func (c *child) call(command string, reply any) error {
	if _, err := io.WriteString(c.in, command+"\n"); err != nil {
		return fmt.Errorf("child %s: %w", command, err)
	}
	if err := c.read(reply); err != nil {
		return fmt.Errorf("child %s: %w", command, err)
	}
	return nil
}

// stop closes the control pipe, which makes the child exit, and reaps
// it; a child that ignores the closed pipe is killed. It is safe to call
// after close.
func (c *child) stop() {
	c.in.Close()
	kill := time.AfterFunc(5*time.Second, func() { c.cmd.Process.Kill() })
	defer kill.Stop()
	c.cmd.Wait() // the exit status of a child told to go away is not a result
}
