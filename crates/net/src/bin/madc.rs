//! `madc` — the MAD client REPL.
//!
//! ```text
//! madc [ADDR]                 interactive REPL (default 127.0.0.1:7878)
//! madc [ADDR] -e "SCRIPT"     execute the `;`-separated script and exit
//! ```
//!
//! Statements end with `;` and may span lines; `--` starts a line
//! comment. REPL commands: `\q` quits, `\ping` probes the server,
//! `\stats [SUBSYSTEM]` renders the server's metrics registry (shorthand
//! for `SHOW STATS …;`), `\bin` toggles the binary result encoding
//! (results arrive structurally and are rendered client-side). Each
//! `madc` process is one server-side session, so `BEGIN; … COMMIT;`
//! behaves transactionally across inputs — and like
//! `Session::execute_script`, a failing statement stops the rest of its
//! input, so an error inside `BEGIN … COMMIT` never lets the trailing
//! `COMMIT` publish a half-built transaction.

use mad_mql::split_statements;
use mad_net::{Client, ENCODING_BINARY, ENCODING_TEXT};
use std::io::{BufRead, Write};

fn main() {
    let mut addr = "127.0.0.1:7878".to_owned();
    let mut script: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "-e" => match args.next() {
                Some(s) => script = Some(s),
                None => return usage_err("-e needs a script argument"),
            },
            "-h" | "--help" => {
                println!("usage: madc [ADDR] [-e SCRIPT]");
                return;
            }
            s if s.starts_with('-') => return usage_err(&format!("unknown flag `{s}`")),
            s => addr = s.to_owned(),
        }
    }

    let mut client = match Client::connect(&addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("madc: cannot connect to {addr}: {e}");
            std::process::exit(1);
        }
    };
    let info = *client.server_info();

    if let Some(script) = script {
        std::process::exit(i32::from(!run_statements(&mut client, &script)));
    }

    println!(
        "connected to {addr} (protocol {}, commit seq {}, {})",
        info.protocol,
        info.commit_seq,
        if info.durable { "durable" } else { "in-memory" }
    );
    println!(
        "statements end with `;`   \\ping probes   \\stats shows metrics   \\bin toggles binary results   \\q quits"
    );
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut binary = false;
    loop {
        prompt(if buffer.trim().is_empty() { "mql> " } else { "  -> " });
        let mut line = String::new();
        match stdin.lock().read_line(&mut line) {
            Ok(0) => break, // EOF
            Ok(_) => {}
            Err(e) => {
                eprintln!("madc: stdin: {e}");
                break;
            }
        }
        match line.trim() {
            "\\q" | "\\quit" => break,
            "\\ping" => {
                match client.ping() {
                    Ok(()) => println!("pong"),
                    Err(e) => eprintln!("error: {e}"),
                }
                continue;
            }
            "\\bin" => {
                let want = if binary { ENCODING_TEXT } else { ENCODING_BINARY };
                match client.set_encoding(want) {
                    Ok(()) => {
                        binary = !binary;
                        println!(
                            "result encoding: {}",
                            if binary { "binary" } else { "text" }
                        );
                    }
                    Err(e) => eprintln!("error: {e}"),
                }
                continue;
            }
            cmd if cmd.starts_with("\\stats") => {
                let subsystem = cmd.trim_start_matches("\\stats").trim();
                let stmt = if subsystem.is_empty() {
                    "SHOW STATS".to_owned()
                } else {
                    format!("SHOW STATS {subsystem}")
                };
                match client.execute(&stmt) {
                    Ok(text) => print!("{text}"),
                    Err(e) => eprintln!("error: {e}"),
                }
                continue;
            }
            _ => {}
        }
        buffer.push_str(&line);
        if !ends_statement(&buffer) {
            continue;
        }
        run_statements(&mut client, &buffer);
        buffer.clear();
    }
}

/// Execute the `;`-separated statements of `input` in order, stopping at
/// the first failure (mirroring `Session::execute_script`: never send the
/// statements after a failed one). Returns whether everything succeeded.
fn run_statements(client: &mut Client, input: &str) -> bool {
    for stmt in split_statements(input) {
        match client.execute(&stmt) {
            Ok(text) => print!("{text}"),
            Err(e) => {
                eprintln!("error: {e}");
                return false;
            }
        }
    }
    true
}

fn usage_err(msg: &str) {
    eprintln!("madc: {msg} (try --help)");
    std::process::exit(2);
}

fn prompt(p: &str) {
    print!("{p}");
    let _ = std::io::stdout().flush();
}

/// Does the buffered input end with a statement terminator — a `;`
/// outside string literals and `--` comments, ignoring trailing
/// whitespace? (Same lexical rules as `split_statements`.)
fn ends_statement(buffer: &str) -> bool {
    let mut in_str = false;
    let mut last_significant = ' ';
    let mut chars = buffer.chars().peekable();
    while let Some(c) = chars.next() {
        match c {
            '\'' => {
                in_str = !in_str;
                last_significant = c;
            }
            '-' if !in_str && chars.peek() == Some(&'-') => {
                // skip the comment to end of line
                for c2 in chars.by_ref() {
                    if c2 == '\n' {
                        break;
                    }
                }
            }
            c if c.is_whitespace() => {}
            c => last_significant = if in_str { ' ' } else { c },
        }
    }
    !in_str && last_significant == ';'
}
