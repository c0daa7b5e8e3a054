//! `geomancy` — command-line front end for the Geomancy reproduction.
//!
//! See [`commands::USAGE`] or run `geomancy help`.

mod args;
mod clustercmd;
mod commands;
mod netcmd;

use args::Args;

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let parsed = match Args::parse(raw) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    let wants_help = parsed.flag("help").unwrap_or(false);
    let outcome = match parsed.command.as_deref() {
        _ if wants_help => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        Some("simulate") => commands::simulate(&parsed),
        Some("analyze") => commands::analyze(&parsed),
        Some("models") => commands::models(&parsed),
        Some("train") => commands::train_model(&parsed),
        Some("serve") => match parsed.str_opt("listen") {
            Some(listen) => netcmd::serve_listen(&parsed, &listen),
            None => commands::serve(&parsed),
        },
        Some("ingest") => netcmd::ingest(&parsed),
        Some("query") => netcmd::query(&parsed),
        Some("cluster") => clustercmd::cluster(&parsed),
        Some("help") | None => {
            println!("{}", commands::USAGE);
            Ok(())
        }
        Some(other) => {
            eprintln!("error: unknown command {other:?}\n\n{}", commands::USAGE);
            std::process::exit(2);
        }
    };
    if let Err(e) = outcome {
        eprintln!("error: {e}");
        std::process::exit(1);
    }
}
